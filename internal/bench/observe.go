package bench

import (
	"io"
	"maps"
	"slices"
	"sync"

	"cudele"
	"cudele/internal/trace"
)

// Sink collects observability output from an experiment's runs. Each run
// registers under its deterministic name ("fig3a/run007"); when the run
// drains, the sink appends the run's metric registry, every series
// labeled with the run name, into its one registry, and a tracing sink
// also keeps the trace recorder it attached to the run's cluster. Runs
// execute concurrently on the grid's worker pool, so registration is
// serialized under a mutex; the metrics dump sorts families and series
// and the trace walks the runs in name order, so output is byte-identical
// for any GOMAXPROCS, like the tables themselves.
//
// A nil *Sink is the disabled sink: both hooks are no-ops, so run
// helpers call them unconditionally. Observation never charges virtual
// time or consumes randomness, which is what keeps a sinked run's table
// byte-identical to an unsinked one (see TestTracingDoesNotPerturb).
type Sink struct {
	mu   sync.Mutex
	runs []string                   // every registered run name, in start order
	reg  *trace.Registry            // every drained run's metrics
	recs map[string]*trace.Recorder // by run name; nil unless the sink traces
}

// NewSink returns an empty sink. Only a tracing sink attaches a recorder
// to each run, and holds its spans until WriteChrome: a caller that
// writes no trace passes false.
func NewSink(tracing bool) *Sink {
	s := &Sink{reg: trace.NewRegistry()}
	if tracing {
		s.recs = make(map[string]*trace.Recorder)
	}
	return s
}

// start registers a freshly built cluster under the run name and, on a
// tracing sink, enables tracing on it. Call before the cluster runs;
// nil-safe.
func (s *Sink) start(name string, cl *cudele.Cluster) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs = append(s.runs, name)
	if s.recs != nil {
		s.recs[name] = cl.EnableTracing()
	}
}

// finish appends the run's metrics after the simulation drains (and
// before the engine shuts down, so device snapshots still work); nil-safe.
func (s *Sink) finish(name string, cl *cudele.Cluster) {
	if s == nil {
		return
	}
	reg := cl.CollectMetrics()
	s.mu.Lock()
	s.reg.Append(reg, trace.KV{Key: "run", Val: name})
	s.mu.Unlock()
}

// WriteChrome writes every traced run's spans as one Chrome trace-event
// document, prefixing each track with its run name so Perfetto shows one
// process group per simulation.
func (s *Sink) WriteChrome(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := make([]trace.Run, 0, len(s.recs))
	for _, name := range slices.Sorted(maps.Keys(s.recs)) {
		runs = append(runs, trace.Run{Prefix: name + ":", Rec: s.recs[name]})
	}
	return trace.WriteChrome(w, runs)
}

// WriteMetrics writes every run's metrics as one Prometheus text dump,
// each series labeled with its run name.
func (s *Sink) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.WritePrometheus(w)
}
