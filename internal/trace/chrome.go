package trace

import (
	"encoding/json"
	"io"
	"sort"
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
	var spans []Span
	var instants []Instant
	if r != nil {
		spans, instants = r.Spans(), r.Instants()
	}

	// Collect tracks and assign pids in sorted order.
	procs := map[string]int{}
	for _, s := range spans {
		procs[s.Proc] = 0
	}
	for _, i := range instants {
		procs[i.Proc] = 0
	}
	names := make([]string, 0, len(procs))
	for name := range procs {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		procs[name] = i + 1 // pids start at 1
	}

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := newEventWriter(w)
	for _, name := range names {
		enc.add(chromeMeta{
			Name: "process_name", Ph: "M", Pid: procs[name], Tid: 0,
			Args: map[string]string{"name": name},
		})
	}

	// Group span indices by track, preserving recording order within.
	byProc := make(map[string][]int, len(procs))
	for i, s := range spans {
		byProc[s.Proc] = append(byProc[s.Proc], i)
	}
	for _, name := range names {
		idx := byProc[name]
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
				Pid: procs[s.Proc], Tid: tid, Args: kvMap(s.Args),
			})
		}
	}
	for _, in := range instants {
		enc.add(chromeEvent{
			Name: in.Name, Cat: in.Cat, Ph: "i", Scope: "t",
			Ts: usec(in.At), Pid: procs[in.Proc], Tid: 0, Args: detailArgs(in.Detail),
		})
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
