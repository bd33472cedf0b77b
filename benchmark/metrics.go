package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// bench_test.go asserts that the lists below and BENCHMARK.json agree
// exactly, so a later PR reads the same names from either place.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median a metric may worsen
}

// endToEnd lists the bounded metrics a user of the system sees, in the
// ISSUE's order. Every workload reports every one of them from its
// untraced repetitions; the times among them are calibrated to the
// machine's speed (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"alloc_b_per_op", "B", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// unbounded are the ISSUE's other two end-to-end metrics. Every untraced
// run measures and prints them, but BENCHMARK.json lists them with the
// per-layer metrics, without a bound. op_p99_us spreads by up to 21 % of
// its median between runs of one build even when calibrated (README
// "Steadiness"), too close to the largest bound BENCHMARK.json may carry
// for the benchmark to be accepted reliably; the ISSUE's rule for such a
// metric is to list it unbounded rather than widen its bound. fail_frac
// is 0 on every workload, which the benchmark contract forbids for an
// end-to-end metric; the result line carries its two counts and any
// failed call fails the run.
var unbounded = []metricDef{
	{Name: "op_p99_us", Unit: "us", Better: "lower"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
}

// measured is everything an untraced run measures, in report order.
var measured = append(append([]metricDef{}, endToEnd...), unbounded...)

// cellNames are the nine policy cells timed inside real_decoupled and
// real_io, in the order they run.
var cellNames = []string{
	"invisible-none", "weak-none", "speculative-none", "strong-eventual-none",
	"strong-global", "weak-local", "weak-global", "speculative-global", "strong-eventual-global",
}

// perLayer lists the unbounded metrics a traced run reports: the 86
// single-layer rows of the ISSUE, then the run's speed factor and the two
// unbounded metrics above. Probe rows are timed loops around one public function; count
// rows are read from existing public counters; client.* and cell.* rows
// come from the spans of the traced repetitions of the workload that was
// run (0 where that workload makes no such call).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("sim.schedule_ns", "ns"), lo("sim.switch_ns", "ns"), lo("sim.resource_ns", "ns"), lo("sim.virtual_s", "s"),

		lo("realrt.spawn_us", "us"), lo("realrt.handoff_us", "us"), lo("realrt.sleep_min_us", "us"),
		lo("realrt.yield_ns", "ns"), lo("realrt.blocking_ns", "ns"), hi("realrt.two_task_speedup", "ratio"),

		lo("transport.call_sim_ns", "ns"), lo("transport.call_real_us", "us"), lo("transport.chain8_ns", "ns"),
		lo("transport.route_ns", "ns"), lo("transport.loopback_rtt_us", "us"), lo("transport.window_ns", "ns"),

		lo("journal.encode_ns_per_event", "ns"), lo("journal.decode_ns_per_event", "ns"), lo("journal.append_ns", "ns"),
		lo("journal.cursor_ns_per_event", "ns"), lo("journal.encoded_b_per_event", "B"),

		lo("namespace.create_ns", "ns"), lo("namespace.resolve_ns", "ns"), lo("namespace.unlink_ns", "ns"),
		lo("namespace.readdir_us", "us"), lo("namespace.replay_ns_per_event", "ns"), lo("namespace.semerge_ns_per_event", "ns"),
		lo("namespace.persist_ns_per_dentry", "ns"), lo("namespace.check_ns_per_inode", "ns"),

		lo("rados.write_mem_us", "us"), lo("rados.put_4k_us", "us"), lo("rados.put_4m_ms", "ms"),
		lo("rados.load_ms_per_kobj", "ms"), lo("rados.striper_ms_per_16m", "ms"), lo("rados.disk_b_per_user_b", "ratio"),
		lo("rados.writes", "count"), lo("rados.bytes_written", "B"),

		lo("mds.submit_create_us", "us"), lo("mds.submit_lookup_us", "us"), lo("mds.submit_readdir_us", "us"),
		lo("mds.submit_create_stream_us", "us"), lo("mds.apply_ns_per_event", "ns"), lo("mds.apply_chunked_ns_per_event", "ns"),
		lo("mds.validate_ns_per_event", "ns"), lo("mds.converge_ns_per_event", "ns"),
		lo("mds.requests", "count"), lo("mds.cap_revokes", "count"), lo("mds.journal_segments", "count"), lo("mds.merged_events", "count"),

		lo("client.create_us", "us"), lo("client.unlink_us", "us"), lo("client.rename_us", "us"), lo("client.lookup_us", "us"),
		lo("client.stat_us", "us"), lo("client.resolve_us", "us"), lo("client.readdir_us", "us"), lo("client.local_create_ns", "ns"),
		lo("client.merge_weak_ns_per_event", "ns"), lo("client.merge_spec_ns_per_event", "ns"), lo("client.merge_se_ns_per_event", "ns"),
		lo("client.local_persist_ms_per_mb", "ms"), lo("client.global_persist_ms_per_mb", "ms"),
		lo("client.nonvolatile_us_per_event", "us"), lo("client.fetch_global_ms_per_mb", "ms"), lo("client.rpcs_per_op", "ratio"),
	}
	for _, c := range cellNames {
		defs = append(defs, hi("cell."+c+".ops_per_s", "ops/s"))
	}
	defs = append(defs,
		lo("monitor.register_us", "us"), lo("monitor.place_us", "us"), lo("monitor.migrate_ms_per_kinode", "ms"),

		lo("obs.heat_record_ns", "ns"), lo("obs.flight_record_ns", "ns"), lo("trace.span_ns", "ns"),
		lo("stats.observe_ns", "ns"), lo("policy.parse_ns", "ns"), lo("policy.compile_ns", "ns"),

		lo("bench.timer_ns", "ns"), lo("bench.trace_overhead_frac", "ratio"), lo("bench.unexplained_frac", "ratio"),
	)
	return append(append(defs, hi("bench.machine_speed", "ratio")), unbounded...)
}

// metricValue is one reported number; it marshals to the
// {"value": .., "unit": ..} object of the benchmark contract.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value for one list of definitions and
// refuses names that are not on the list, so a typo cannot add a metric.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in metrics.go", name))
	}
	m.vals[name] = v
}

// subset copies the values of defs into a set that declares only them.
func (m *metricSet) subset(defs []metricDef) *metricSet {
	out := newMetricSet(defs)
	for _, d := range defs {
		out.vals[d.Name] = m.vals[d.Name]
	}
	return out
}

// export returns every declared metric; ones never set report 0 (a
// per-layer row the workload does not exercise).
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for name, d := range m.defs {
		out[name] = metricValue{Value: m.vals[name], Unit: d.Unit}
	}
	return out
}

// median returns the median of vals (mean of the middle pair for an even
// count); vals is not modified. An empty slice yields 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pooledPercentileNS returns the q-th quantile (0..1), by the
// nearest-rank rule, of the union of several sorted sets of nanosecond
// samples, without copying them: it searches for the smallest value that
// at least rank samples do not exceed.
func pooledPercentileNS(sorted [][]int64, q float64) float64 {
	total, lo, hi := 0, int64(math.MaxInt64), int64(0)
	for _, s := range sorted {
		if len(s) > 0 {
			total += len(s)
			lo, hi = min(lo, s[0]), max(hi, s[len(s)-1])
		}
	}
	if total == 0 {
		return 0
	}
	rank := min(total, max(1, int(q*float64(total)+0.5)))
	for lo < hi {
		mid := lo + (hi-lo)/2
		atMost := 0
		for _, s := range sorted {
			atMost += sort.Search(len(s), func(i int) bool { return s[i] > mid })
		}
		if atMost >= rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return float64(lo)
}
