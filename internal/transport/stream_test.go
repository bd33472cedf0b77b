package transport

import (
	"testing"
	"time"

	"cudele/internal/runtime"
	"cudele/internal/sim"
)

func TestWindowBoundsAndWaitAccounting(t *testing.T) {
	w := NewWindow(2)
	if !w.TryPush(runtime.Time(100), "a") || !w.TryPush(runtime.Time(200), "b") {
		t.Fatal("pushes within the limit must succeed")
	}
	if w.TryPush(runtime.Time(300), "c") {
		t.Fatal("push beyond the limit must fail")
	}
	if w.Len() != 2 || w.Limit() != 2 {
		t.Fatalf("len=%d limit=%d", w.Len(), w.Limit())
	}
	payload, waited, ok := w.Pop(runtime.Time(350))
	if !ok || payload != "a" || waited != runtime.Duration(250) {
		t.Fatalf("pop = %v %v %v", payload, waited, ok)
	}
	// Space freed: the rejected chunk now fits.
	if !w.TryPush(runtime.Time(400), "c") {
		t.Fatal("push after pop must succeed")
	}
	if payload, _, _ := w.Pop(runtime.Time(400)); payload != "b" {
		t.Fatalf("window is not FIFO: got %v", payload)
	}
	if _, _, ok := w.Pop(runtime.Time(400)); !ok {
		t.Fatal("third pop must succeed")
	}
	if _, _, ok := w.Pop(runtime.Time(400)); ok {
		t.Fatal("empty pop must fail")
	}
	if NewWindow(0).Limit() != 1 {
		t.Fatal("a window must admit at least one chunk")
	}
}

type flowReply struct{ busy bool }

func (r *flowReply) Backpressured() bool { return r.busy }

// TestSendWindowedRetries pins the sender side of flow control: a
// backpressured reply costs one retry delay and the message is re-posted
// until accepted; non-Flow replies are returned as-is.
func TestSendWindowedRetries(t *testing.T) {
	eng := sim.NewEngine(1)
	retry := runtime.Duration(2 * time.Millisecond)
	attempts := 0
	w := NewWire("mds.0", 0, func(p runtime.Task, msg any) any {
		attempts++
		if attempts <= 3 {
			return &flowReply{busy: true}
		}
		return &flowReply{busy: false}
	})
	var reply any
	var elapsed runtime.Duration
	eng.Spawn("sender", func(p runtime.Task) {
		start := p.Now()
		reply = SendWindowed(p, w, "chunk", retry)
		elapsed = runtime.Duration(p.Now() - start)
	})
	eng.RunAll()
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if r, ok := reply.(*flowReply); !ok || r.busy {
		t.Fatalf("reply = %v", reply)
	}
	if elapsed != 3*retry {
		t.Fatalf("elapsed = %v, want %v", elapsed, 3*retry)
	}

	plain := NewWire("mds.1", 0, func(p runtime.Task, msg any) any { return "done" })
	eng.Spawn("sender2", func(p runtime.Task) {
		if got := SendWindowed(p, plain, "chunk", retry); got != "done" {
			t.Errorf("non-Flow reply = %v", got)
		}
	})
	eng.RunAll()
}

type testChunk struct {
	StreamInfo
	body string
}

// TestChunksAreInterceptorVisible pins the tracing-for-free property:
// chunk messages travel through Post like any other message, so an
// interceptor chain around the handler sees every chunk and can
// introspect it through the StreamChunk interface.
func TestChunksAreInterceptorVisible(t *testing.T) {
	var seen []StreamInfo
	h := Handler(func(p runtime.Task, msg any) any { return nil })
	observe := Interceptor(func(next Handler) Handler {
		return func(p runtime.Task, msg any) any {
			if c, ok := msg.(StreamChunk); ok {
				seen = append(seen, c.Stream())
			}
			return next(p, msg)
		}
	})
	w := NewWire("mds.0", 0, Chain(h, observe))
	eng := sim.NewEngine(1)
	eng.Spawn("sender", func(p runtime.Task) {
		for i := 0; i < 3; i++ {
			w.Post(p, &testChunk{
				StreamInfo: StreamInfo{ID: 7, Seq: i, Items: 10, Bytes: 25000, Last: i == 2},
				body:       "payload",
			})
		}
	})
	eng.RunAll()
	if len(seen) != 3 {
		t.Fatalf("interceptor saw %d chunks, want 3", len(seen))
	}
	for i, info := range seen {
		if info.ID != 7 || info.Seq != i || info.Items != 10 {
			t.Fatalf("chunk %d info = %+v", i, info)
		}
	}
	if !seen[2].Last {
		t.Fatal("final chunk not marked Last")
	}
}
