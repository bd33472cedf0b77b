package journal

import "fmt"

// Segment is a group of journal events sealed together once it holds the
// journal's segment size (the MDS's "segment size" tunable, paper §II-A,
// Fig 3a).
type Segment struct {
	Events []*Event
}

// Journal is an in-memory, append-ordered metadata journal divided into
// segments. It is a "pile system": writes are cheap appends; readers must
// replay state (paper §IV-B). A decoupled client keeps one; an MDS rank
// keeps its journal as encoded segments instead.
type Journal struct {
	segSize  int
	segments []*Segment // sealed
	cur      *Segment
	nextSeq  uint64
}

// New creates a journal whose segments seal after segSize events.
func New(segSize int) *Journal {
	if segSize < 1 {
		panic(fmt.Sprintf("journal: segment size %d < 1", segSize))
	}
	return &Journal{segSize: segSize}
}

// Append stamps ev with the next sequence number and appends it. If the
// append seals the current segment, the sealed segment is returned so the
// owner can queue it for dispatch; otherwise Append returns nil.
func (j *Journal) Append(ev *Event) (*Segment, error) {
	if err := ev.Validate(); err != nil {
		return nil, err
	}
	ev.Seq = j.nextSeq
	j.nextSeq++
	if j.cur == nil {
		// Sized once: a segment fills to segSize, and growing to it by
		// doubling allocates twice the slots. The cap bounds what a
		// journal with huge segments pays for a segment it may not fill.
		j.cur = &Segment{Events: make([]*Event, 0, min(j.segSize, 1024))}
	}
	j.cur.Events = append(j.cur.Events, ev)
	if len(j.cur.Events) >= j.segSize {
		return j.seal(), nil
	}
	return nil, nil
}

func (j *Journal) seal() *Segment {
	s := j.cur
	j.segments = append(j.segments, s)
	j.cur = nil
	return s
}

// Seal closes the in-progress segment, if any, and returns it.
func (j *Journal) Seal() *Segment {
	if j.cur == nil || len(j.cur.Events) == 0 {
		return nil
	}
	return j.seal()
}

// Segments returns the sealed segments in order.
func (j *Journal) Segments() []*Segment { return j.segments }

// Events returns all events (sealed segments plus the current one) in
// append order. The returned slice is freshly allocated.
func (j *Journal) Events() []*Event {
	var out []*Event
	for _, s := range j.segments {
		out = append(out, s.Events...)
	}
	if j.cur != nil {
		out = append(out, j.cur.Events...)
	}
	return out
}

// Len returns the number of events.
func (j *Journal) Len() int {
	n := 0
	for _, s := range j.segments {
		n += len(s.Events)
	}
	if j.cur != nil {
		n += len(j.cur.Events)
	}
	return n
}

// Reset discards all events and restarts sequence numbering, modeling a
// client clearing its in-memory journal after a successful sync/merge.
func (j *Journal) Reset() {
	j.segments = nil
	j.cur = nil
	j.nextSeq = 0
}

// Export encodes all events as a complete journal image,
// exactly sized up front, with no intermediate flat copy of the event
// slice: one cursor run as long as the journal.
func (j *Journal) Export() ([]byte, error) {
	return j.InlineCursor().Export(j.Len(), true)
}

// Import creates a journal from an encoded image, preserving event order.
// Sequence numbers are re-stamped contiguously from zero.
func Import(data []byte, segSize int) (*Journal, error) {
	events, err := Decode(data)
	if err != nil {
		return nil, err
	}
	j := New(segSize)
	for _, ev := range events {
		if _, err := j.Append(ev); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// Replay applies events to target in order, stopping at the first error.
// It returns the number of events applied. This is the shared recovery
// code path used by Stream replay, Volatile Apply, and Nonvolatile Apply.
func Replay(events []*Event, target Target) (int, error) {
	for i, ev := range events {
		if err := target.ApplyEvent(ev); err != nil {
			return i, fmt.Errorf("replay event %d (%s): %w", i, ev, err)
		}
	}
	return len(events), nil
}
