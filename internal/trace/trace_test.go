package trace

import (
	"testing"
)

func TestNilRecorderIsSafeAndSilent(t *testing.T) {
	var r *Recorder
	id := r.Begin(10, "mds.0", "transport", "rpc.create")
	if id != -1 {
		t.Fatalf("nil Begin returned %d, want -1", id)
	}
	r.End(id, 20)
	r.Add(0, 5, "client.0", "journal", "append")
	r.Instant(3, "mon", "mds", "epoch")
	if r.Len() != 0 || len(r.Spans()) != 0 || len(r.Instants()) != 0 {
		t.Fatal("nil recorder recorded something")
	}
	if got := len(r.Cats()); got != 0 {
		t.Fatalf("nil Cats len = %d", got)
	}
}

func TestNilRecorderPathIsZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		id := r.Begin(10, "mds.0", "transport", "rpc.create")
		r.End(id, 20)
		r.Instant(5, "mds.0", "mds", "x")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestBeginEndAndOpenSpans(t *testing.T) {
	r := New()
	a := r.Begin(100, "mds.0", "transport", "rpc.create")
	b := r.Begin(150, "mds.0", "journal", "append")
	r.End(b, 180)
	r.End(a, 200)
	c := r.Begin(300, "client.0", "transport", "rpc.lookup") // left open

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[a].Begin != 100 || spans[a].End != 200 {
		t.Fatalf("span a = [%d,%d], want [100,200]", spans[a].Begin, spans[a].End)
	}
	if spans[b].End != 180 {
		t.Fatalf("span b end = %d, want 180", spans[b].End)
	}
	if !spans[c].Open() {
		t.Fatal("span c should be open")
	}
	cats := r.Cats()
	if cats["transport"] != 2 || cats["journal"] != 1 {
		t.Fatalf("cats = %v", cats)
	}
}

func TestMergePrefixesTracks(t *testing.T) {
	a := New()
	a.Add(0, 10, "mds.0", "transport", "rpc.create")
	a.Instant(5, "mon", "mds", "epoch")
	merged := New()
	merged.Merge(a, "run1:")
	merged.Merge(nil, "run2:")
	if merged.Spans()[0].Proc != "run1:mds.0" {
		t.Fatalf("merged span proc = %q", merged.Spans()[0].Proc)
	}
	if merged.Instants()[0].Proc != "run1:mon" {
		t.Fatalf("merged instant proc = %q", merged.Instants()[0].Proc)
	}
	// The source recorder must be untouched.
	if a.Spans()[0].Proc != "mds.0" {
		t.Fatalf("source recorder mutated: %q", a.Spans()[0].Proc)
	}
}
