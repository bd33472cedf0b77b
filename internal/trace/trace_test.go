package trace

import (
	"fmt"
	"strings"
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
	r.Record(3, "mon", "mds", "epoch", "")
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
		r.Record(5, "mds.0", "mds", "x", "")
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
	a.Record(5, "mon", "mds", "epoch", "")
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

// TestDumpLayout pins the dump rendering: tracks sorted, one header per
// track, one timestamped line per event with its detail when it has one.
func TestDumpLayout(t *testing.T) {
	r := New()
	r.Record(2_000_000, "mds.0", "mds", "create", "client chaos-main")
	r.Record(3_000_000, "mds.0", "mds", "crash", "")
	r.Record(1_000_000, "chaos", "fault", "client-crash", "client:main")
	want := "[chaos]\n" +
		"  t=1ms          fault client-crash client:main\n" +
		"[mds.0]\n" +
		"  t=2ms          mds create client chaos-main\n" +
		"  t=3ms          mds crash\n"
	if got := r.Dump(32); got != want {
		t.Fatalf("dump =\n%s\nwant\n%s", got, want)
	}
}

// TestDumpInterleavesByTime: a track's spans and points appear in one
// sequence ordered by time (a span by its begin), and events at the same
// time in the order they were recorded — a restart before the replay it
// starts, a span before the bounce recorded inside it. A span shows its
// args and duration.
func TestDumpInterleavesByTime(t *testing.T) {
	r := New()
	r.Record(10, "mds.0", "mds", "restart", "")
	replay := r.Begin(10, "mds.0", "journal", "journal.replay")
	r.End(replay, 40)
	r.Add(50, 70, "mds.0", "transport", "rpc.create", KV{"detail", "c0 /a"})
	r.Record(50, "mds.0", "mds", "bounce", "/a -> rank 1")
	r.Add(20, 30, "mds.0", "rados", "rados.write", KV{"object", "dir.1"})
	want := "[mds.0]\n" +
		"  t=10ns         mds restart\n" +
		"  t=10ns         journal journal.replay [30ns]\n" +
		"  t=20ns         rados rados.write object=dir.1 [10ns]\n" +
		"  t=50ns         transport rpc.create c0 /a [20ns]\n" +
		"  t=50ns         mds bounce /a -> rank 1\n"
	if got := r.Dump(0); got != want {
		t.Fatalf("dump =\n%s\nwant\n%s", got, want)
	}
}

// TestDumpKeepsLastN: each track shows only its last n events,
// oldest-first, whatever the other tracks hold.
func TestDumpKeepsLastN(t *testing.T) {
	r := New()
	for i := 0; i < 10; i++ {
		r.Record(Time(i), "mds.0", "mds", fmt.Sprintf("op%d", i), "")
		if i%2 == 0 {
			r.Add(Time(i), Time(i+1), "mds.0", "transport", fmt.Sprintf("rpc%d", i))
		}
	}
	r.Record(0, "client", "client", "crash", "")
	dump := r.Dump(4)
	want := "[client]\n  t=0s           client crash\n[mds.0]\n" +
		"  t=7ns          mds op7\n" +
		"  t=8ns          mds op8\n" +
		"  t=8ns          transport rpc8 [1ns]\n" +
		"  t=9ns          mds op9\n"
	if dump != want {
		t.Fatalf("dump =\n%s\nwant\n%s", dump, want)
	}
}

// TestDumpShowsAllWhenFewer: a track with fewer than n events shows them
// all, in order.
func TestDumpShowsAllWhenFewer(t *testing.T) {
	r := New()
	r.Record(1, "client", "client", "crash", "")
	r.Record(2, "client", "client", "restart", "")
	want := "[client]\n  t=1ns          client crash\n  t=2ns          client restart\n"
	if got := r.Dump(8); got != want {
		t.Fatalf("dump =\n%s\nwant\n%s", got, want)
	}
}

// TestDumpMarksOpenSpan: a span its daemon never ended (it crashed inside
// it) says so instead of showing a duration.
func TestDumpMarksOpenSpan(t *testing.T) {
	r := New()
	r.Begin(5, "mds.1", "transport", "export.save", KV{"detail", "/a"})
	r.Record(6, "mds.1", "mds", "crash", "")
	dump := r.Dump(10)
	if !strings.Contains(dump, "transport export.save /a [open]\n") {
		t.Fatalf("open span not marked:\n%s", dump)
	}
}

// TestDumpNilRecorder: the disabled recorder dumps nothing.
func TestDumpNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(0, "mds.0", "mds", "op", "")
	if got := r.Dump(10); got != "" {
		t.Fatalf("nil recorder dumped %q", got)
	}
}
