package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cudele/internal/stats"
)

// Registry is a per-run metric registry: a flat list of counter, gauge,
// and summary samples that daemons contribute at collection time.
//
// Daemons in this codebase already maintain their own counters
// (mds.Metrics, client.Stats, rados.Stats, sim.Resource accounting), so
// the registry is deliberately a *pull-time snapshot surface*, not a set
// of live instruments: each daemon's FillMetrics method copies its
// counters into the registry after the simulation drains. That keeps the
// hot paths untouched (observation cannot perturb the run) and makes the
// dump a pure function of simulation state.
//
// Export sorts families by name and series by label signature, so the
// rendered text is deterministic no matter what order daemons filled it
// in — which is what lets the bench harness merge registries from
// concurrently executed runs into one byte-stable dump.
type Registry struct {
	samples []sample
}

// sample is one series: a value (or histogram snapshot) under a metric
// family name with labels. Labels are canonicalized (sorted by key) at
// registration and the rendered signature cached, so two registrations
// that permute the same label set are the same series everywhere —
// lookup, sort, and text exposition.
type sample struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "summary"
	labels []KV   // canonical (key-sorted) order
	sig    string // cached labelSignature(labels)
	value  float64

	// summary-only fields, captured from a stats.Histogram.
	quantiles []quantile
	sum       float64
	count     uint64
}

type quantile struct {
	q float64
	v float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter records a monotonically accumulated total.
func (reg *Registry) Counter(name, help string, value float64, labels ...KV) {
	l, sig := canonLabels(labels)
	reg.samples = append(reg.samples, sample{name: name, help: help, typ: "counter", labels: l, sig: sig, value: value})
}

// Gauge records an instantaneous value (utilization, queue depth).
func (reg *Registry) Gauge(name, help string, value float64, labels ...KV) {
	l, sig := canonLabels(labels)
	reg.samples = append(reg.samples, sample{name: name, help: help, typ: "gauge", labels: l, sig: sig, value: value})
}

// summaryQuantiles are the quantiles exported for every histogram.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 1.0}

// Histogram records a latency distribution as a Prometheus summary
// (quantiles, sum, count), reusing the quarter-octave stats.Histogram
// that already sits on the client RPC paths. Values export in seconds,
// the Prometheus base unit.
func (reg *Registry) Histogram(name, help string, h *stats.Histogram, labels ...KV) {
	l, sig := canonLabels(labels)
	s := sample{name: name, help: help, typ: "summary", labels: l, sig: sig,
		sum: h.Sum().Seconds(), count: h.Count()}
	for _, q := range summaryQuantiles {
		s.quantiles = append(s.quantiles, quantile{q: q, v: h.Quantile(q).Seconds()})
	}
	reg.samples = append(reg.samples, s)
}

// Append merges other's samples into reg, adding the given labels to
// every series (the bench harness tags each run's registry with a run
// label). Appending a nil registry is a no-op.
func (reg *Registry) Append(other *Registry, labels ...KV) {
	if other == nil {
		return
	}
	for _, s := range other.samples {
		if len(labels) > 0 {
			merged := make([]KV, 0, len(labels)+len(s.labels))
			merged = append(merged, labels...)
			merged = append(merged, s.labels...)
			s.labels, s.sig = canonLabels(merged)
		}
		reg.samples = append(reg.samples, s)
	}
}

// Value returns the value of the first series matching name and labels,
// for tests and table cells. The bool reports whether it was found.
func (reg *Registry) Value(name string, labels ...KV) (float64, bool) {
	_, want := canonLabels(labels)
	for _, s := range reg.samples {
		if s.name == name && s.sig == want {
			return s.value, true
		}
	}
	return 0, false
}

// formatValue renders a float the same way every time: integers without
// a decimal point, everything else in compact 'g' form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// canonLabels copies labels into canonical (key, then value) order and
// returns them with their rendered signature. Every registration path
// funnels through here, so a label set's order at the call site can
// never reach the exported text.
func canonLabels(labels []KV) ([]KV, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	l := make([]KV, len(labels))
	copy(l, labels)
	sort.SliceStable(l, func(i, j int) bool {
		if l[i].Key != l[j].Key {
			return l[i].Key < l[j].Key
		}
		return l[i].Val < l[j].Val
	})
	return l, labelSignature(l)
}

// labelSignature renders canonically ordered labels; callers outside
// canonLabels must pass labels that are already canonical.
func labelSignature(labels []KV) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels))
	for _, kv := range labels {
		parts = append(parts, kv.Key+"="+strconv.Quote(kv.Val))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func labelsWith(labels []KV, extra ...KV) string {
	all := make([]KV, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	_, sig := canonLabels(all)
	return sig
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: one # HELP / # TYPE header per family, then its series sorted
// by label signature.
func (reg *Registry) WritePrometheus(w io.Writer) error {
	byName := map[string][]*sample{}
	names := []string{}
	for i := range reg.samples {
		s := &reg.samples[i]
		if _, seen := byName[s.name]; !seen {
			names = append(names, s.name)
		}
		byName[s.name] = append(byName[s.name], s)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		series := byName[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", name, series[0].help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, series[0].typ)
		sort.SliceStable(series, func(i, j int) bool {
			return series[i].sig < series[j].sig
		})
		for _, s := range series {
			if s.typ == "summary" {
				for _, q := range s.quantiles {
					fmt.Fprintf(&b, "%s%s %s\n", name,
						labelsWith(s.labels, KV{"quantile", strconv.FormatFloat(q.q, 'g', -1, 64)}),
						formatValue(q.v))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, s.sig, formatValue(s.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, s.sig, s.count)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", name, s.sig, formatValue(s.value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
