package rados

import (
	"fmt"

	"cudele/internal/runtime"
)

// Striper splits large logical writes across fixed-size objects
// ("name.0000000000", "name.0000000001", ...) and pushes the stripes in
// parallel, which is how Global Persist leverages the collective bandwidth
// of the cluster's disks (paper §V-A).
type Striper struct {
	c    *Cluster
	unit int
}

// NewStriper returns a striper over c using the configured stripe unit.
func NewStriper(c *Cluster) *Striper {
	return &Striper{c: c, unit: c.cfg.StripeUnit}
}

func stripeName(name string, idx int) string {
	return fmt.Sprintf("%s.%010d", name, idx)
}

// Write stores data under the logical name, striped into unit-sized
// objects written in parallel. It blocks p until every stripe is durable
// and reports the first stripe failure, if any — later stripes may have
// landed regardless, exactly like a real parallel push. Each stripe
// object keeps its sub-slice of data: the caller gives data up, as with
// Cluster.Write.
func (s *Striper) Write(p runtime.Task, pool, name string, data []byte) error {
	s.c.dom.Enter(p)
	defer s.c.dom.Leave(p)
	g := s.c.dom.NewGroup()
	var firstErr error
	for idx, off := 0, 0; off < len(data); idx, off = idx+1, off+s.unit {
		end := off + s.unit
		if end > len(data) {
			end = len(data)
		}
		oid := ObjectID{Pool: pool, Name: stripeName(name, idx)}
		chunk := data[off:end]
		g.Go("stripe-write", func(sp runtime.Task) {
			if err := s.c.Write(sp, oid, chunk); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	if len(data) == 0 {
		// Still record an empty head object so the name exists.
		return s.c.Write(p, ObjectID{Pool: pool, Name: stripeName(name, 0)}, nil)
	}
	g.Wait(p)
	return firstErr
}

// WriteBilled stores data under the logical name while charging the
// devices for billed bytes, striped and pushed in parallel exactly as
// Write would stripe billed bytes. The real payload lands in the first
// stripe; the remaining stripes exist only to carry their share of the
// transfer cost, so Read reassembles the payload unchanged. The first
// stripe keeps data itself.
func (s *Striper) WriteBilled(p runtime.Task, pool, name string, data []byte, billed int64) error {
	s.c.dom.Enter(p)
	defer s.c.dom.Leave(p)
	if billed < int64(len(data)) {
		billed = int64(len(data))
	}
	stripes := int((billed + int64(s.unit) - 1) / int64(s.unit))
	if stripes < 1 {
		stripes = 1
	}
	per := billed / int64(stripes)
	g := s.c.dom.NewGroup()
	var firstErr error
	for idx := 0; idx < stripes; idx++ {
		idx := idx
		oid := ObjectID{Pool: pool, Name: stripeName(name, idx)}
		g.Go("stripe-write", func(sp runtime.Task) {
			var err error
			if idx == 0 {
				err = s.c.WriteBilled(sp, oid, data, per)
			} else {
				err = s.c.WriteBilled(sp, oid, nil, per)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	g.Wait(p)
	return firstErr
}

// Read reassembles the logical object written by Write. Stripes are read
// in parallel.
func (s *Striper) Read(p runtime.Task, pool, name string) ([]byte, error) {
	s.c.dom.Enter(p)
	defer s.c.dom.Leave(p)
	// Discover the stripe count first (cheap stats until a miss).
	var n int
	for {
		oid := ObjectID{Pool: pool, Name: stripeName(name, n)}
		if s.c.get(oid) == nil {
			break
		}
		n++
	}
	if n == 0 {
		s.c.opLatency(p) // a miss still costs a round trip
		return nil, fmt.Errorf("striper read %s/%s: %w", pool, name, ErrNotFound)
	}
	chunks := make([][]byte, n)
	g := s.c.dom.NewGroup()
	var firstErr error
	for i := 0; i < n; i++ {
		i := i
		oid := ObjectID{Pool: pool, Name: stripeName(name, i)}
		g.Go("stripe-read", func(sp runtime.Task) {
			b, err := s.c.Read(sp, oid)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			chunks[i] = b
		})
	}
	g.Wait(p)
	if firstErr != nil {
		return nil, firstErr
	}
	var out []byte
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out, nil
}

// Remove deletes every stripe of the logical object.
func (s *Striper) Remove(p runtime.Task, pool, name string) error {
	s.c.dom.Enter(p)
	defer s.c.dom.Leave(p)
	removed := 0
	for i := 0; ; i++ {
		oid := ObjectID{Pool: pool, Name: stripeName(name, i)}
		if s.c.get(oid) == nil {
			break
		}
		if err := s.c.Remove(p, oid); err != nil {
			return err
		}
		removed++
	}
	if removed == 0 {
		return fmt.Errorf("striper remove %s/%s: %w", pool, name, ErrNotFound)
	}
	return nil
}
