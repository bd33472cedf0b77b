package journal

import "fmt"

// Segment is a group of journal events that is dispatched to the object
// store as a unit. The MDS tunables "segment size" and "dispatch size"
// (paper §II-A, Fig 3a) operate on these.
type Segment struct {
	Index  int
	Events []*Event
}

// Journal is an in-memory, append-ordered metadata journal divided into
// segments. It is a "pile system": writes are cheap appends; readers must
// replay state (paper §IV-B). Both decoupled clients and the MDS keep one.
type Journal struct {
	segSize  int
	segments []*Segment // sealed, not yet trimmed
	cur      *Segment
	nextIdx  int
	nextSeq  uint64
	trimmed  uint64 // events discarded by Trim
	total    uint64 // events ever appended
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
	j.total++
	if j.cur == nil {
		// Sized once: a segment fills to segSize, and growing to it by
		// doubling allocates twice the slots. The cap bounds what a
		// journal with huge segments pays for a segment it may not fill.
		j.cur = &Segment{Index: j.nextIdx, Events: make([]*Event, 0, min(j.segSize, 1024))}
		j.nextIdx++
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

// Segments returns the sealed, untrimmed segments in order.
func (j *Journal) Segments() []*Segment { return j.segments }

// Events returns all untrimmed events (sealed segments plus the current
// one) in append order. The returned slice is freshly allocated.
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

// Len returns the number of untrimmed events.
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

// Total returns the number of events ever appended, including trimmed.
func (j *Journal) Total() uint64 { return j.total }

// Trimmed returns the number of events discarded by Trim.
func (j *Journal) Trimmed() uint64 { return j.trimmed }

// Trim discards sealed segments with Index <= through, modeling the MDS
// expiring journal segments once their updates are applied to the metadata
// store.
func (j *Journal) Trim(through int) {
	keep := j.segments[:0]
	for _, s := range j.segments {
		if s.Index <= through {
			j.trimmed += uint64(len(s.Events))
			continue
		}
		keep = append(keep, s)
	}
	j.segments = keep
}

// Reset discards all events and restarts sequence numbering, modeling a
// client clearing its in-memory journal after a successful sync/merge.
func (j *Journal) Reset() {
	j.segments = nil
	j.cur = nil
	j.nextIdx = 0
	j.nextSeq = 0
	j.trimmed = 0
	j.total = 0
}

// Export encodes all untrimmed events as a complete journal image,
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
