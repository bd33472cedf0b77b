package trace

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strings"
)

// This file renders a Recorder as Chrome trace-event JSON — the
// "JSON Array Format with metadata" that chrome://tracing and Perfetto
// load directly. Simulated nanoseconds map to trace microseconds (the
// format's native unit), so a span that took 120 simulated µs reads as
// 120 µs in the Perfetto timeline.
//
// The format wants integer pid/tid pairs. Each distinct track (Span.Proc)
// becomes a process, with pids assigned in sorted track order and a
// process_name metadata record naming it. Spans within one track can
// overlap without nesting — many simulation processes run "inside" one
// daemon at the same virtual time — so spans are packed onto numbered
// lanes (tids): a span shares a lane only when it nests inside, or starts
// after, the spans already there. The packing walks spans in a fixed
// deterministic order, so identical recorders always render identical
// bytes.

// chromeEvent is one trace-event record. Field order is fixed by the
// struct, and encoding/json sorts the Args map keys, so marshaling is
// deterministic.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeMeta is a metadata record ("M" phase): process/thread naming.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

func usec(t Time) float64 { return float64(t) / 1e3 }

func kvMap(kvs []KV) map[string]string {
	if len(kvs) == 0 {
		return nil
	}
	m := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Val
	}
	return m
}

// detailArgs is a point event's args: its detail, when it has one.
func detailArgs(detail string) map[string]string {
	if detail == "" {
		return nil
	}
	return map[string]string{"detail": detail}
}

// WriteChrome writes the recorder's contents as a Chrome trace-event
// JSON object. A nil recorder writes a valid, empty trace.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return WriteChrome(w, []Run{{Rec: r}})
}

// Run is one recorder of a many-run trace document; each of its tracks is
// named Prefix + Span.Proc.
type Run struct {
	Prefix string
	Rec    *Recorder
}

// WriteChrome writes runs as one Chrome trace-event JSON object, each run
// its own process group: pids follow the sorted order of every prefixed
// track name, the metadata records come first, then each track's spans,
// then every point, run by run. It copies one run's events at a time,
// never the whole document's.
func WriteChrome(w io.Writer, runs []Run) error {
	type track struct {
		name, proc string
		run        int
	}
	var tracks []track
	for i, run := range runs {
		for _, proc := range run.Rec.procs() {
			tracks = append(tracks, track{name: run.Prefix + proc, proc: proc, run: i})
		}
	}
	slices.SortFunc(tracks, func(a, b track) int { return strings.Compare(a.name, b.name) })
	pids := make([]map[string]int, len(runs)) // per run: proc -> pid
	for i, t := range tracks {
		if pids[t.run] == nil {
			pids[t.run] = map[string]int{}
		}
		pids[t.run][t.proc] = i + 1 // pids start at 1
	}

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := newEventWriter(w)
	for i, t := range tracks {
		enc.add(chromeMeta{
			Name: "process_name", Ph: "M", Pid: i + 1, Tid: 0,
			Args: map[string]string{"name": t.name},
		})
	}

	// Each track's spans, in recording order within the track, from a
	// copy of its run's spans taken when the walk reaches the run.
	run := -1
	var spans []Span
	var byProc map[string][]int
	for pid, t := range tracks {
		if t.run != run {
			run, spans = t.run, runs[t.run].Rec.Spans()
			byProc = map[string][]int{}
			for i, s := range spans {
				byProc[s.Proc] = append(byProc[s.Proc], i)
			}
		}
		idx := byProc[t.proc]
		// Sort by begin time, longest-first on ties, recording order
		// last, so lane packing is a pure function of the span set.
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := &spans[idx[a]], &spans[idx[b]]
			if sa.Begin != sb.Begin {
				return sa.Begin < sb.Begin
			}
			return clampEnd(sa) > clampEnd(sb)
		})
		lanes := newLanePacker()
		for _, i := range idx {
			s := &spans[i]
			end := clampEnd(s)
			tid := lanes.place(s.Begin, end)
			enc.add(chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: usec(s.Begin), Dur: usec(end - s.Begin),
				Pid: pid + 1, Tid: tid, Args: kvMap(s.Args),
			})
		}
	}
	spans, byProc = nil, nil // the last run's copy goes before the points are copied
	for i, run := range runs {
		for _, in := range run.Rec.Instants() {
			enc.add(chromeEvent{
				Name: in.Name, Cat: in.Cat, Ph: "i", Scope: "t",
				Ts: usec(in.At), Pid: pids[i][in.Proc], Tid: 0, Args: detailArgs(in.Detail),
			})
		}
	}
	if enc.err != nil {
		return enc.err
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// clampEnd resolves a still-open span to a zero-duration span at its
// begin time so the export is always well-formed.
func clampEnd(s *Span) Time {
	if s.Open() || s.End < s.Begin {
		return s.Begin
	}
	return s.End
}

// eventWriter emits comma-separated JSON values, remembering the first
// marshal error.
type eventWriter struct {
	w     io.Writer
	first bool
	err   error
}

func newEventWriter(w io.Writer) *eventWriter { return &eventWriter{w: w, first: true} }

func (e *eventWriter) add(v any) {
	if e.err != nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	if !e.first {
		if _, err := io.WriteString(e.w, ","); err != nil {
			e.err = err
			return
		}
	}
	e.first = false
	if _, err := e.w.Write(data); err != nil {
		e.err = err
	}
}

// lanePacker assigns spans to the lowest lane (tid) where they either
// nest inside the lane's innermost open span or start at/after its end.
// Each lane keeps a stack of open span end-times.
type lanePacker struct {
	lanes [][]Time
}

func newLanePacker() *lanePacker { return &lanePacker{} }

func (lp *lanePacker) place(begin, end Time) int {
	for li := range lp.lanes {
		stack := lp.lanes[li]
		// Close spans that ended at or before this span begins.
		for len(stack) > 0 && stack[len(stack)-1] <= begin {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 || end <= stack[len(stack)-1] {
			lp.lanes[li] = append(stack, end)
			return li + 1 // tids start at 1; 0 is metadata/instants
		}
		lp.lanes[li] = stack
	}
	lp.lanes = append(lp.lanes, []Time{end})
	return len(lp.lanes)
}
