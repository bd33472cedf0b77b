package realrt

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"cudele/internal/runtime"
	"cudele/internal/trace"
)

// frameSize is the fixed size of a loopback round-trip frame. Protocol
// messages carry live pointers (journal events, namespace inodes) and
// cannot be serialized, so the loopback option does not ship payloads;
// it puts one real kernel socket round trip on every Call — the frame
// for the request, its echo for the reply — so measured latency includes
// a real network stack instead of nothing.
const frameSize = 64

// loopback is a TCP echo endpoint on 127.0.0.1 plus a small pool of
// client connections.
type loopback struct {
	ln net.Listener

	trips atomic.Uint64 // completed round trips

	mu    sync.Mutex
	conns []*lbConn
}

// lbConn is a pooled client connection and the frame its round trips
// send and receive, allocated once with the connection: a frame on
// NetRoundTrip's stack would escape through net.Conn.Write and cost an
// allocation per round trip.
type lbConn struct {
	net.Conn
	frame [frameSize]byte
}

// EnableLoopback starts a loopback-TCP echo listener and routes every
// transport Call's round trip through it (see Wire). Call once, before
// spawning tasks — a second call is an error, the first listener stays —
// and Shutdown closes it.
func (e *Engine) EnableLoopback() error {
	if e.net != nil {
		return errors.New("realrt: loopback already enabled")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lb := &loopback{ln: ln}
	go lb.serve()
	e.net = lb
	return nil
}

// NetHop is the real backend's wire for one Call (see transport.Wire):
// with the loopback option on, one socket round trip outside t's domain
// — request out, reply back; without it nothing, because the call into
// the callee's domain that follows is the in-process hop. The wire has no
// error path, and a Call that went on without its hop would report a
// latency with no network in it, so a failed round trip panics in t and
// the run stops.
func (e *Engine) NetHop(t runtime.Task) {
	if e.net == nil {
		return
	}
	var err error
	task(t).Blocking(func() { _, err = e.NetRoundTrip() })
	if err != nil {
		panic(fmt.Sprintf("realrt: loopback hop: %v", err))
	}
}

// NetRoundTrip sends one fixed-size frame to the loopback echo server
// and waits for it to come back. It reports whether the loopback option
// is enabled; task callers must invoke it inside Task.Blocking, since it
// performs real socket I/O.
func (e *Engine) NetRoundTrip() (bool, error) {
	lb := e.net
	if lb == nil {
		return false, nil
	}
	c, err := lb.get()
	if err != nil {
		return true, err
	}
	if _, err := c.Write(c.frame[:]); err != nil {
		c.Close()
		return true, err
	}
	if _, err := io.ReadFull(c, c.frame[:]); err != nil {
		c.Close()
		return true, err
	}
	lb.put(c)
	lb.trips.Add(1)
	return true, nil
}

// FillMetrics exports the engine's wait counters, on every real run, and
// the loopback's round-trip count when that option is on.
func (e *Engine) FillMetrics(reg *trace.Registry) {
	reg.Counter("cudele_realrt_parks_total", "Waits on a signal, group, pipe or resource that found it unavailable and parked the task.", float64(e.parks.Load()))
	reg.Counter("cudele_realrt_parks_blocked_total", "Parks whose wakeup did not arrive within the poll window, so the task blocked in the scheduler.", float64(e.parksBlocked.Load()))
	if lb := e.net; lb != nil {
		reg.Counter("cudele_net_round_trips_total", "Loopback-TCP round trips completed: one per metadata Call.", float64(lb.trips.Load()))
	}
}

func (lb *loopback) serve() {
	for {
		c, err := lb.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			defer c.Close()
			var frame [frameSize]byte
			for {
				if _, err := io.ReadFull(c, frame[:]); err != nil {
					return
				}
				if _, err := c.Write(frame[:]); err != nil {
					return
				}
			}
		}()
	}
}

func (lb *loopback) get() (*lbConn, error) {
	lb.mu.Lock()
	if n := len(lb.conns); n > 0 {
		c := lb.conns[n-1]
		lb.conns = lb.conns[:n-1]
		lb.mu.Unlock()
		return c, nil
	}
	lb.mu.Unlock()
	c, err := net.Dial("tcp", lb.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	return &lbConn{Conn: c}, nil
}

func (lb *loopback) put(c *lbConn) {
	lb.mu.Lock()
	lb.conns = append(lb.conns, c)
	lb.mu.Unlock()
}

func (lb *loopback) close() {
	lb.ln.Close()
	lb.mu.Lock()
	for _, c := range lb.conns {
		c.Close()
	}
	lb.conns = nil
	lb.mu.Unlock()
}
