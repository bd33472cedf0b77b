package transport

import (
	"testing"
	"time"

	"cudele/internal/runtime"
	"cudele/internal/sim"
)

func TestChainOrderAndRewrite(t *testing.T) {
	var order []string
	h := Handler(func(p runtime.Task, msg any) any {
		order = append(order, "handler")
		return msg.(int) + 1
	})
	outer := Interceptor(func(next Handler) Handler {
		return func(p runtime.Task, msg any) any {
			order = append(order, "outer")
			return next(p, msg)
		}
	})
	inner := Interceptor(func(next Handler) Handler {
		return func(p runtime.Task, msg any) any {
			order = append(order, "inner")
			return next(p, msg).(int) * 10
		}
	})
	chained := Chain(h, outer, inner)
	out := chained(nil, 1)
	if out != 20 {
		t.Fatalf("chained reply = %v, want 20", out)
	}
	if len(order) != 3 || order[0] != "outer" || order[1] != "inner" || order[2] != "handler" {
		t.Fatalf("order = %v", order)
	}
}

func TestChainShortCircuit(t *testing.T) {
	h := Handler(func(p runtime.Task, msg any) any {
		t.Fatal("handler must not run")
		return nil
	})
	deny := Interceptor(func(next Handler) Handler {
		return func(p runtime.Task, msg any) any { return "denied" }
	})
	if out := Chain(h, deny)(nil, 1); out != "denied" {
		t.Fatalf("reply = %v", out)
	}
}

// TestChainEmpty pins the degenerate compositions: no interceptors
// returns the handler itself, and a nil interceptor slice behaves the
// same (Chain is variadic, so both arise in practice when a server's
// interceptor pipeline is configuration-dependent).
func TestChainEmpty(t *testing.T) {
	h := Handler(func(p runtime.Task, msg any) any { return msg.(int) * 2 })
	if out := Chain(h)(nil, 21); out != 42 {
		t.Fatalf("empty chain reply = %v, want 42", out)
	}
	var none []Interceptor
	if out := Chain(h, none...)(nil, 21); out != 42 {
		t.Fatalf("nil-slice chain reply = %v, want 42", out)
	}
}

func TestWireTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	lat := runtime.Duration(50 * time.Microsecond)
	work := runtime.Duration(300 * time.Microsecond)
	w := NewWire("mds.0", lat, func(p runtime.Task, msg any) any {
		p.Sleep(work)
		return msg
	})
	if w.Name() != "mds.0" {
		t.Fatalf("name = %q", w.Name())
	}
	var callTook, postTook runtime.Duration
	eng.Spawn("t", func(p runtime.Task) {
		start := p.Now()
		if out := w.Call(p, "m"); out != "m" {
			t.Errorf("call reply = %v", out)
		}
		callTook = runtime.Duration(p.Now() - start)
		start = p.Now()
		w.Post(p, "m")
		postTook = runtime.Duration(p.Now() - start)
	})
	eng.RunAll()
	if want := 2*lat + work; callTook != want {
		t.Errorf("Call took %v, want %v (wire both ways + handler)", callTook, want)
	}
	if postTook != work {
		t.Errorf("Post took %v, want %v (handler only, no wire charge)", postTook, work)
	}
}

// hopRuntime is the simulator with the NetHop capability added, the way
// the real backend has it: the hop is counted and charges no modeled
// latency.
type hopRuntime struct {
	runtime.Runtime
	hops int
}

func (r *hopRuntime) NetHop(runtime.Task) { r.hops++ }

type hopTask struct {
	runtime.Task
	rt *hopRuntime
}

func (t hopTask) Runtime() runtime.Runtime { return t.rt }

// TestWireRealCallHopsOnce: on a runtime whose wire is real a Call makes
// exactly one hop — the round trip is the request and the reply — before
// the handler runs, charges none of the modeled latency, and a Post makes
// none.
func TestWireRealCallHopsOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := &hopRuntime{Runtime: eng}
	work := runtime.Duration(300 * time.Microsecond)
	hopsAtHandler := -1
	w := NewWire("mds.0", runtime.Duration(50*time.Microsecond), func(p runtime.Task, msg any) any {
		hopsAtHandler = rt.hops
		p.Sleep(work)
		return msg
	})
	eng.Spawn("t", func(p runtime.Task) {
		p = hopTask{p, rt}
		start := p.Now()
		if out := w.Call(p, "m"); out != "m" {
			t.Errorf("call reply = %v", out)
		}
		if rt.hops != 1 || hopsAtHandler != 1 {
			t.Errorf("Call made %d hops, %d of them before the handler; want 1 and 1", rt.hops, hopsAtHandler)
		}
		if took := runtime.Duration(p.Now() - start); took != work {
			t.Errorf("Call took %v, want %v: a real wire charges no modeled latency", took, work)
		}
		w.Post(p, "m")
		if rt.hops != 1 {
			t.Errorf("Post hopped: %d hops after it, want 1", rt.hops)
		}
	})
	eng.RunAll()
	if hopsAtHandler < 0 {
		t.Fatal("the handler never ran")
	}
}

func TestTableLongestPrefix(t *testing.T) {
	tb := NewTable()
	if got := tb.RankFor("/anything"); got != 0 {
		t.Fatalf("empty table routes to %d", got)
	}
	tb.Place("/job", 1)
	tb.Place("/job/deep", 2)
	cases := []struct {
		path string
		want int
	}{
		{"/", 0},
		{"/other", 0},
		{"/job", 1},
		{"/job/", 1},
		{"/job/x", 1},
		{"/job/deep", 2},
		{"/job/deep/a/b", 2},
		{"/jobs", 0}, // component boundary: "/job" does not own "/jobs"
		{"", 0},
	}
	for _, c := range cases {
		if got := tb.RankFor(c.path); got != c.want {
			t.Errorf("RankFor(%q) = %d, want %d", c.path, got, c.want)
		}
	}
}
