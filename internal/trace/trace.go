// Package trace is the deterministic observability substrate: spans and
// instant events recorded on *simulated* time, and metric registries with
// Prometheus-style text export. It sits below the simulation kernel in
// the import graph (it knows nothing about sim), so every layer — engine,
// transport, metadata service, object store, clients — can record into
// one Recorder without cycles.
//
// The load-bearing invariant is that observation never perturbs the
// simulation: recording charges no virtual time, consumes no randomness,
// and the disabled path (a nil *Recorder) is a single pointer comparison
// with zero allocations, so a traced run and an untraced run execute the
// exact same event schedule. The exporters (Chrome trace-event JSON for
// Perfetto, Prometheus text) sort everything they emit, so output bytes
// do not depend on map iteration or goroutine completion order.
package trace

import "sync"

// Time is a point in virtual time in nanoseconds since simulation start.
// It mirrors sim.Time (also an int64 nanosecond count); the two convert
// with a plain cast. trace keeps its own alias so the package has no
// dependency on the simulation kernel.
type Time = int64

// KV is one span or metric annotation.
type KV struct {
	Key, Val string
}

// Span is one timed operation on a daemon's track.
type Span struct {
	Proc  string // track: the daemon or client ("mds.0", "client.3", "rados")
	Cat   string // subsystem category ("transport", "journal", "rados", "mds")
	Name  string // operation ("rpc.create", "journal.segwrite")
	Begin Time
	End   Time // openEnd until SpanID.End is called
	Args  []KV
}

// openEnd marks a span that has begun but not ended. Exporters clamp it
// to the begin time so a crash mid-span still yields a loadable trace.
const openEnd Time = -1

// Open reports whether the span is still open (never ended).
func (s *Span) Open() bool { return s.End == openEnd }

// Instant is a point event with no duration.
type Instant struct {
	Proc string
	Cat  string
	Name string
	At   Time
	Args []KV
}

// SpanID refers to an in-flight span; -1 is the no-op id handed out by a
// disabled recorder.
type SpanID int

// Recorder accumulates spans and instants in append-only buffers. A nil
// *Recorder is the disabled recorder: every method is safe to call and
// does nothing, which is how call sites get a zero-overhead off switch —
// no flags, no indirection, one nil check.
//
// All methods are safe for concurrent use. The simulated engine runs one
// process at a time and never contends, but the real execution backend
// records from many goroutines (tasks of every lock domain), so
// the buffers are guarded by a mutex. Readers (Spans, Instants) return
// stable copies; recording while exporting is race-free, though spans
// recorded after the snapshot are naturally absent from it.
type Recorder struct {
	mu       sync.Mutex
	spans    []Span
	instants []Instant
}

// New returns an enabled recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder records (nil receivers do not).
func (r *Recorder) Enabled() bool { return r != nil }

// Begin opens a span and returns its id. Disabled recorders return -1.
func (r *Recorder) Begin(at Time, proc, cat, name string, args ...KV) SpanID {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Proc: proc, Cat: cat, Name: name, Begin: at, End: openEnd, Args: args})
	return SpanID(len(r.spans) - 1)
}

// End closes a span opened by Begin. Ending the -1 id is a no-op, so
// callers never need to branch on whether tracing was on at Begin time.
func (r *Recorder) End(id SpanID, at Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) >= len(r.spans) {
		return
	}
	r.spans[id].End = at
}

// Add records a complete span in one call.
func (r *Recorder) Add(begin, end Time, proc, cat, name string, args ...KV) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Proc: proc, Cat: cat, Name: name, Begin: begin, End: end, Args: args})
}

// Instant records a point event.
func (r *Recorder) Instant(at Time, proc, cat, name string, args ...KV) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.instants = append(r.instants, Instant{Proc: proc, Cat: cat, Name: name, At: at, Args: args})
}

// Spans returns a snapshot of the recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Instants returns a snapshot of the recorded instants in recording order.
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Instant, len(r.instants))
	copy(out, r.instants)
	return out
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Merge appends other's spans and instants, prefixing every track name
// with prefix (e.g. "fig3a/run03:"). It is how the bench harness folds
// many per-run recorders into one Perfetto file: each run becomes its own
// process group. Merging a nil or empty recorder is a no-op.
func (r *Recorder) Merge(other *Recorder, prefix string) {
	if r == nil || other == nil {
		return
	}
	spans, instants := other.Spans(), other.Instants()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range spans {
		s.Proc = prefix + s.Proc
		r.spans = append(r.spans, s)
	}
	for _, i := range instants {
		i.Proc = prefix + i.Proc
		r.instants = append(r.instants, i)
	}
}

// Cats returns the distinct span categories recorded, for coverage
// assertions ("did this run produce transport, journal, and rados
// spans?").
func (r *Recorder) Cats() map[string]int {
	out := make(map[string]int)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		out[s.Cat]++
	}
	for _, i := range r.instants {
		out[i.Cat]++
	}
	return out
}
