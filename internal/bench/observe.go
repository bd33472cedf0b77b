package bench

import (
	"io"
	"sort"
	"sync"

	"cudele"
	"cudele/internal/trace"
)

// Sink collects observability output from an experiment's runs. Each run
// registers under a deterministic name ("fig3a/run007"); the sink
// attaches a trace recorder to the run's cluster and, when the run
// drains, pulls its metric registry. Runs execute concurrently on the
// grid worker pool, so registration is serialized under a mutex, and
// every export walks the runs in name order — output is byte-identical
// for any worker count, like the tables themselves.
//
// A nil *Sink is the disabled sink: both hooks are no-ops, so run
// helpers call them unconditionally. Observation never charges virtual
// time or consumes randomness, which is what keeps a sinked run's table
// byte-identical to an unsinked one (see TestTracingDoesNotPerturb).
type Sink struct {
	mu   sync.Mutex
	runs map[string]*runObs
}

type runObs struct {
	rec *trace.Recorder
	reg *trace.Registry
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{runs: make(map[string]*runObs)} }

// start enables tracing on a freshly built cluster, registering it under
// the run name. Call before the cluster runs; nil-safe.
func (s *Sink) start(name string, cl *cudele.Cluster) {
	if s == nil {
		return
	}
	rec := cl.EnableTracing()
	s.mu.Lock()
	s.runs[name] = &runObs{rec: rec}
	s.mu.Unlock()
}

// finish pulls the run's metrics after the simulation drains (and before
// the engine shuts down, so device snapshots still work); nil-safe.
func (s *Sink) finish(name string, cl *cudele.Cluster) {
	if s == nil {
		return
	}
	reg := cl.CollectMetrics()
	s.mu.Lock()
	if r := s.runs[name]; r != nil {
		r.reg = reg
	} else {
		s.runs[name] = &runObs{reg: reg}
	}
	s.mu.Unlock()
}

// names returns registered run names in sorted order.
func (s *Sink) names() []string {
	out := make([]string, 0, len(s.runs))
	for name := range s.runs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteChrome writes every run's spans as one Chrome trace-event
// document, prefixing each track with its run name so Perfetto shows one
// process group per simulation.
func (s *Sink) WriteChrome(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var runs []trace.Run
	for _, name := range s.names() {
		runs = append(runs, trace.Run{Prefix: name + ":", Rec: s.runs[name].rec})
	}
	return trace.WriteChrome(w, runs)
}

// WriteMetrics writes every run's metrics as one Prometheus text dump,
// each series labeled with its run name.
func (s *Sink) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := trace.NewRegistry()
	for _, name := range s.names() {
		out.Append(s.runs[name].reg, trace.KV{Key: "run", Val: name})
	}
	return out.WritePrometheus(w)
}
