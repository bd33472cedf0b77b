package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// chromeDoc mirrors the trace-event JSON shape for parsing in tests.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func parseChrome(t *testing.T, s string) *chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal([]byte(s), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v\n%s", err, s)
	}
	return &doc
}

func TestWriteChromeEmpty(t *testing.T) {
	var r *Recorder
	doc := parseChrome(t, chromeString(r))
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace has %d events", len(doc.TraceEvents))
	}
}

func TestWriteChromeBasics(t *testing.T) {
	r := New()
	r.Add(1_000, 3_000, "mds.0", "transport", "rpc.create", KV{"client", "client.0"})
	r.Add(2_000, 2_500, "mds.0", "journal", "journal.append")
	r.Add(0, 4_000, "client.0", "transport", "rpc.create")
	r.Record(1_500, "mds.0", "mds", "cap.revoke", "")

	out := chromeString(r)
	doc := parseChrome(t, out)

	// 2 process_name metadata + 3 spans + 1 instant.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6:\n%s", len(doc.TraceEvents), out)
	}
	byName := map[string]int{}
	pids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Ph]++
		if ev.Ph == "M" {
			pids[ev.Args["name"]] = ev.Pid
		}
	}
	if byName["M"] != 2 || byName["X"] != 3 || byName["i"] != 1 {
		t.Fatalf("phases = %v", byName)
	}
	// pids assigned in sorted track order: client.0 < mds.0.
	if pids["client.0"] != 1 || pids["mds.0"] != 2 {
		t.Fatalf("pids = %v", pids)
	}
	// Simulated ns render as trace µs.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "rpc.create" && ev.Pid == pids["mds.0"] {
			if ev.Ts != 1.0 || ev.Dur != 2.0 {
				t.Fatalf("mds rpc.create ts=%v dur=%v, want 1/2 µs", ev.Ts, ev.Dur)
			}
			if ev.Args["client"] != "client.0" {
				t.Fatalf("args = %v", ev.Args)
			}
		}
	}
}

// TestLanePackingNestsAndSeparates checks that nested spans share a lane
// while overlapping non-nested spans are pushed to separate lanes.
// TestMergePrefixesTracks: runs written as one document render byte for
// byte as one recorder holding every run's events, in run order, under
// prefixed track names — pids in sorted prefixed-name order, whatever the
// run order — and a nil run adds nothing.
func TestMergePrefixesTracks(t *testing.T) {
	b, a := New(), New()
	b.Add(0, 10, "mds.0", "transport", "rpc.create")
	b.Record(5, "mon", "mds", "epoch", "e=1")
	a.Add(2, 4, "mds.0", "journal", "journal.append")
	a.Add(0, 8, "mds.0", "transport", "rpc.mkdir")
	a.Record(3, "client.0", "client", "crash", "")
	one := New()
	one.Add(0, 10, "b:mds.0", "transport", "rpc.create")
	one.Record(5, "b:mon", "mds", "epoch", "e=1")
	one.Add(2, 4, "a:mds.0", "journal", "journal.append")
	one.Add(0, 8, "a:mds.0", "transport", "rpc.mkdir")
	one.Record(3, "a:client.0", "client", "crash", "")

	var got strings.Builder
	if err := WriteChrome(&got, []Run{{"b:", b}, {"nil:", nil}, {"a:", a}}); err != nil {
		t.Fatal(err)
	}
	if want := chromeString(one); got.String() != want {
		t.Fatalf("runs rendered\n%s\nwant\n%s", got.String(), want)
	}
	if doc := parseChrome(t, got.String()); doc.TraceEvents[0].Args["name"] != "a:client.0" {
		t.Fatalf("pid 1 is %q, want a:client.0", doc.TraceEvents[0].Args["name"])
	}
	// The sources are untouched.
	if b.Spans()[0].Proc != "mds.0" || a.Instants()[0].Proc != "client.0" {
		t.Fatal("a source recorder was renamed")
	}
}

func TestLanePackingNestsAndSeparates(t *testing.T) {
	r := New()
	r.Add(0, 100, "mds.0", "transport", "outer")
	r.Add(10, 50, "mds.0", "journal", "nested")   // nests in outer -> same lane
	r.Add(60, 90, "mds.0", "journal", "nested2")  // nests in outer -> same lane
	r.Add(50, 150, "mds.0", "transport", "cross") // overlaps outer, no nest -> new lane
	r.Add(120, 130, "mds.0", "rados", "later")    // after outer ends -> lane 1 again

	doc := parseChrome(t, chromeString(r))
	tids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Name] = ev.Tid
		}
	}
	if tids["nested"] != tids["outer"] || tids["nested2"] != tids["outer"] {
		t.Fatalf("nested spans left the outer lane: %v", tids)
	}
	if tids["cross"] == tids["outer"] {
		t.Fatalf("overlapping non-nested span shares a lane: %v", tids)
	}
	if tids["later"] != tids["outer"] {
		t.Fatalf("disjoint span did not reuse lane 1: %v", tids)
	}
}

// TestChromeDeterministic checks that rendering is byte-stable.
func TestChromeDeterministic(t *testing.T) {
	build := func() string {
		r := New()
		r.Add(5, 9, "b", "x", "s1", KV{"k", "v"}, KV{"a", "b"})
		r.Add(1, 4, "a", "x", "s2")
		r.Record(2, "c", "y", "i1", "")
		return chromeString(r)
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("non-deterministic chrome output:\n%s\n---\n%s", a, b)
	}
}

// TestChromeOpenSpanClamped checks open spans render with zero duration.
func TestChromeOpenSpanClamped(t *testing.T) {
	r := New()
	r.Begin(100, "mds.0", "transport", "hung")
	out := chromeString(r)
	doc := parseChrome(t, out)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Dur != 0 {
			t.Fatalf("open span dur = %v, want 0", ev.Dur)
		}
	}
	if !strings.Contains(out, "hung") {
		t.Fatal("open span missing from output")
	}
}

// chromeString renders r's trace to a string.
func chromeString(r *Recorder) string {
	var b strings.Builder
	if err := r.WriteChrome(&b); err != nil {
		return fmt.Sprintf("trace: %v", err)
	}
	return b.String()
}

// TestChromePointDetail: a point's detail is its "detail" arg, and a point
// without one has no args.
func TestChromePointDetail(t *testing.T) {
	r := New()
	r.Record(1_000, "monitor", "monitor", "migrate.commit", "/a rank 0 -> 1")
	r.Record(2_000, "mds.0", "mds", "crash", "")
	doc := parseChrome(t, chromeString(r))
	seen := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph != "i":
		case ev.Name == "migrate.commit":
			seen++
			if len(ev.Args) != 1 || ev.Args["detail"] != "/a rank 0 -> 1" {
				t.Errorf("migrate.commit args = %v", ev.Args)
			}
		case ev.Name == "crash":
			seen++
			if ev.Args != nil {
				t.Errorf("crash has args %v, want none", ev.Args)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("found %d of 2 points:\n%s", seen, chromeString(r))
	}
}
