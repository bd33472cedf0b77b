// Package trace is the deterministic observability substrate: spans and
// point events recorded on *simulated* time, and metric registries with
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
// Perfetto, Prometheus text, and Dump, the per-daemon tail a failing
// chaos schedule reports) sort everything they emit, so output bytes do
// not depend on map iteration or goroutine completion order.
package trace

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"
)

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

// Instant is a point event with no duration: a protocol step (a crash,
// a restart, a migration commit, an injected fault) or a journal append.
type Instant struct {
	Proc   string
	Cat    string
	Name   string
	At     Time
	Detail string // free text; exported as the "detail" arg when set
	spans  int    // spans recorded before it: Dump's order at equal times
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

// Record records a point event with an optional free-text detail.
func (r *Recorder) Record(at Time, proc, cat, name, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.instants = append(r.instants, Instant{Proc: proc, Cat: cat, Name: name, At: at, Detail: detail, spans: len(r.spans)})
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

// procs returns the distinct tracks of the recorded spans and points, in
// sorted order.
func (r *Recorder) procs() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	for i := range r.spans {
		seen[r.spans[i].Proc] = true
	}
	for i := range r.instants {
		seen[r.instants[i].Proc] = true
	}
	return slices.Sorted(maps.Keys(seen))
}

// Dump renders the last n events of every track (all of them when n <= 0),
// tracks sorted by name and spans and points interleaved by time, as the
// text block a failing chaos schedule reports:
//
//	[mds.0]
//	  t=2.1ms        transport rpc.create chaos-main /chaos/main [14µs]
//	  t=2.3ms        mds crash
//
// A point shows its detail; a span its args (a "detail" arg bare, any
// other as key=value) and its duration, or [open] when it never ended —
// its daemon crashed inside it. A nil recorder dumps "".
func (r *Recorder) Dump(n int) string {
	if r == nil {
		return ""
	}
	// Events at one time keep their recording order. A span sorts by its
	// index (kind 1), a point by the count of spans recorded before it
	// (kind 0): the point recorded after k spans falls between span k-1
	// and span k, and points with one count keep their order (the sort is
	// stable).
	type event struct {
		at          Time
		order, kind int
		span        *Span
		point       *Instant
	}
	spans, points := r.Spans(), r.Instants()
	byProc := map[string][]event{}
	for i := range spans {
		s := &spans[i]
		byProc[s.Proc] = append(byProc[s.Proc], event{at: s.Begin, order: i, kind: 1, span: s})
	}
	for i := range points {
		p := &points[i]
		byProc[p.Proc] = append(byProc[p.Proc], event{at: p.At, order: p.spans, point: p})
	}
	var b strings.Builder
	for _, proc := range slices.Sorted(maps.Keys(byProc)) {
		evs := byProc[proc]
		slices.SortStableFunc(evs, func(x, y event) int {
			return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.order, y.order), cmp.Compare(x.kind, y.kind))
		})
		if n > 0 && len(evs) > n {
			evs = evs[len(evs)-n:]
		}
		fmt.Fprintf(&b, "[%s]\n", proc)
		for _, ev := range evs {
			fmt.Fprintf(&b, "  t=%-12s ", time.Duration(ev.at))
			if p := ev.point; p != nil {
				b.WriteString(p.Cat + " " + p.Name)
				if p.Detail != "" {
					b.WriteString(" " + p.Detail)
				}
			} else {
				s := ev.span
				b.WriteString(s.Cat + " " + s.Name)
				for _, kv := range s.Args {
					if kv.Key == "detail" {
						b.WriteString(" " + kv.Val)
					} else {
						b.WriteString(" " + kv.Key + "=" + kv.Val)
					}
				}
				if s.Open() {
					b.WriteString(" [open]")
				} else {
					fmt.Fprintf(&b, " [%v]", time.Duration(s.End-s.Begin))
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
