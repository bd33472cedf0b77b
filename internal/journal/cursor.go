package journal

// Cursor iterates a journal's untrimmed events in append order without
// materializing the flat copy Events() builds. Consumers pull
// fixed-size runs with Next, so a journal of any length can be merged or
// exported with memory bounded by the run size — the streaming-pipeline
// contract the durability mechanisms rely on.
//
// A cursor is a read-only view: it walks the journal's live segments, so
// the journal must not be appended to, trimmed, or reset while the
// cursor is in use. That matches every call site — the mechanisms run a
// merge or persist to completion before touching the journal again.
type Cursor struct {
	j   *Journal
	seg int // index into j.segments; len(j.segments) means the open segment
	off int // event offset within the current segment

	// buf is the gather buffer reused across Next calls when reuse is
	// set. A run that crosses a segment boundary must be gathered into
	// one slice; reusing the buffer keeps the inline (synchronous) merge
	// path allocation-free, while the streamed path takes fresh slices
	// because the receiver buffers chunks beyond the call.
	buf   []*Event
	reuse bool

	enc Encoder // amortizes Export's payload staging across runs
}

// Cursor returns a cursor positioned at the journal's first untrimmed
// event. Each Next call returns a freshly allocated slice, safe to hand
// to a receiver that retains it (a flow-control window).
func (j *Journal) Cursor() *Cursor { return &Cursor{j: j} }

// InlineCursor returns a cursor whose Next reuses one internal gather
// buffer across calls. The returned slices are only valid until the next
// Next call — for consumers that apply events synchronously and never
// retain the slice.
func (j *Journal) InlineCursor() *Cursor { return &Cursor{j: j, reuse: true} }

// segment returns the cursor's current segment events, nil when the
// cursor is exhausted.
func (c *Cursor) segment() []*Event {
	for {
		switch {
		case c.seg < len(c.j.segments):
			evs := c.j.segments[c.seg].Events
			if c.off < len(evs) {
				return evs
			}
		case c.seg == len(c.j.segments) && c.j.cur != nil:
			evs := c.j.cur.Events
			if c.off < len(evs) {
				return evs
			}
		default:
			return nil
		}
		c.seg++
		c.off = 0
	}
}

// Remaining returns the number of events not yet returned by Next.
func (c *Cursor) Remaining() int {
	n := 0
	for i := c.seg; i < len(c.j.segments); i++ {
		n += len(c.j.segments[i].Events)
	}
	if c.seg <= len(c.j.segments) && c.j.cur != nil {
		n += len(c.j.cur.Events)
	}
	return n - c.off
}

// Next returns the next run of up to max events in append order,
// gathering across segment boundaries so runs are exactly
// min(max, Remaining()) long — chunk lengths depend only on the journal
// length and max, never on where segments happen to seal. It returns nil
// once the cursor is exhausted.
func (c *Cursor) Next(max int) []*Event {
	if max < 1 {
		return nil
	}
	evs := c.segment()
	if evs == nil {
		return nil
	}
	// Fast path: the run fits inside the current segment — alias it.
	if n := len(evs) - c.off; n >= max {
		out := evs[c.off : c.off+max]
		c.off += max
		return out
	} else if c.Remaining() == n {
		// The tail of the journal lives in this segment.
		out := evs[c.off:]
		c.off += n
		return out
	}
	// Gather across segments.
	var out []*Event
	if c.reuse {
		out = c.buf[:0]
	} else {
		want := max
		if r := c.Remaining(); r < want {
			want = r
		}
		out = make([]*Event, 0, want)
	}
	for len(out) < max {
		evs := c.segment()
		if evs == nil {
			break
		}
		take := max - len(out)
		if n := len(evs) - c.off; n < take {
			take = n
		}
		out = append(out, evs[c.off:c.off+take]...)
		c.off += take
	}
	if c.reuse {
		c.buf = out
	}
	return out
}

// walk visits the next run of up to max events in append order, one
// segment-aliased slice at a time — no gathering, so a run of any length
// costs no buffer.
func (c *Cursor) walk(max int, visit func([]*Event) error) error {
	for max > 0 {
		evs := c.segment()
		if evs == nil {
			break
		}
		take := min(max, len(evs)-c.off)
		if err := visit(evs[c.off : c.off+take]); err != nil {
			return err
		}
		c.off += take
		max -= take
	}
	return nil
}

// Export encodes the next run of up to max events into one exactly sized
// buffer, led by the journal file header when header is set. A sequence
// of runs whose first carries the header concatenates to the image a
// whole-journal Export produces, so "one-shot" is just a run as long as
// the journal.
func (c *Cursor) Export(max int, header bool) ([]byte, error) {
	size := 0
	if header {
		size = MagicLen
	}
	seg, off := c.seg, c.off
	c.walk(max, func(evs []*Event) error {
		for _, ev := range evs {
			size += recordSize(ev)
		}
		return nil
	})
	c.seg, c.off = seg, off // sized; now encode the same run
	out := make([]byte, 0, size)
	if header {
		out = AppendHeader(out)
	}
	err := c.walk(max, func(evs []*Event) (err error) {
		for _, ev := range evs {
			if out, err = c.enc.AppendEvent(out, ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
