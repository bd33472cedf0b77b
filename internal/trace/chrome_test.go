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
	r.Instant(1_500, "mds.0", "mds", "cap.revoke")

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
		r.Instant(2, "c", "y", "i1")
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
