package client

import (
	"errors"
	"testing"

	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
	"cudele/internal/trace"
)

// clockCounter is a task that counts the reads of its clock.
type clockCounter struct {
	runtime.Task
	reads int
}

func (c *clockCounter) Now() runtime.Time {
	c.reads++
	return c.Task.Now()
}

// TestAppendEventTracingDisabled is transport's
// TestTracingDisabledPassthrough for the journal append, the one traced
// call a decoupled client makes per operation: with no recorder it must
// not read the clock (on the real backend each read is a time.Since, and
// the span's two were 5 % of the decoupled workload's CPU); with one, the
// append is a span over exactly its sleep.
func TestAppendEventTracingDisabled(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		if err := c.Decouple(p, "/job", decouplePolicy(policy.ConsInvisible, policy.DurNone, 100)); err != nil {
			t.Errorf("decouple: %v", err)
			return
		}
		root, _ := c.DecoupledRoot()
		event := func(name string) *journal.Event {
			return &journal.Event{Type: journal.EvCreate, Parent: uint64(root), Name: name, Ino: 1 << 40}
		}
		counted := &clockCounter{Task: p}
		if err := c.appendEvent(counted, event("off")); err != nil || counted.reads != 0 {
			t.Errorf("tracing off: appendEvent read the clock %d times (err %v), want 0", counted.reads, err)
		}
		rec := trace.New()
		cl.eng.SetTracer(rec)
		begin := p.Now()
		if err := c.appendEvent(counted, event("on")); err != nil || counted.reads != 2 {
			t.Errorf("tracing on: appendEvent read the clock %d times (err %v), want 2", counted.reads, err)
		}
		spans := rec.Spans()
		if len(spans) != 1 || spans[0].Name != "journal.append" ||
			spans[0].Begin != int64(begin) || spans[0].End != int64(p.Now()) || p.Now() == begin {
			t.Errorf("tracing on: spans = %+v, want one journal.append over [%d, %d]", spans, begin, p.Now())
		}
	})
}

// uncounted hands the rank the client's own task: a simulated resource
// takes only the simulator's task type, and the reads under test are
// submit's.
type uncounted struct{ Service }

func (u uncounted) Call(p runtime.Task, msg any) any {
	return u.Service.Call(p.(*clockCounter).Task, msg)
}

// TestSubmitReadsClockTwice: one RPC reads the client's clock when it
// starts and when it ends, tracing or not — the end reading closes the
// span and the latency interval both, so the two agree to the nanosecond
// and an untraced RPC no longer reads End's argument for nothing.
func TestSubmitReadsClockTwice(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	c.svc = uncounted{c.svc}
	cl.run(t, func(p runtime.Task) {
		counted := &clockCounter{Task: p}
		lookup := func() {
			if _, err := c.Lookup(counted, namespace.RootIno, "nope"); !errors.Is(err, namespace.ErrNotExist) {
				t.Errorf("lookup of a missing name: %v", err)
			}
		}
		lookup()
		if counted.reads != 2 {
			t.Errorf("tracing off: one Lookup read the clock %d times, want 2", counted.reads)
		}
		rec := trace.New()
		cl.eng.SetTracer(rec)
		counted.reads = 0
		before := c.latency.Sum()
		lookup()
		if counted.reads != 2 {
			t.Errorf("tracing on: one Lookup read the clock %d times, want 2", counted.reads)
		}
		observed := c.latency.Sum() - before
		for _, s := range rec.Spans() {
			if s.Cat != "client" {
				continue
			}
			if s.Name != "rpc.lookup" || observed <= 0 || s.End-s.Begin != int64(observed) {
				t.Errorf("client span %+v, want rpc.lookup over the %v the histogram observed", s, observed)
			}
			return
		}
		t.Error("tracing on: no client span recorded")
	})
}
