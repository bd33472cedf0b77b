// Package transport is the metadata RPC fabric: the Wire that carries a
// message into one server's lock domain across the simulated network (or
// a loopback round trip), a composable interceptor chain a fault harness
// slides under a wire, the placement Table that maps namespace subtrees
// to metadata ranks, the redirect a rank answers for a path it does not
// serve, and chunked streams with windowed flow control.
//
// Routing is not here: the metadata cluster (mds.Cluster) picks the
// owning rank's Wire from its Table for each message, and the rank's own
// dispatcher spans every message it serves.
package transport

import (
	"sync/atomic"

	"cudele/internal/runtime"
)

// Handler processes one message inside the caller's simulation process
// and returns the reply. Handlers and interceptors charge their own
// virtual time (CPU, disk, queueing); the wire charges network time.
type Handler func(p runtime.Task, msg any) any

// Interceptor wraps a Handler with a cross-cutting concern. The
// interceptor decides whether to invoke next and may rewrite the reply.
type Interceptor func(next Handler) Handler

// Chain composes interceptors around a terminal handler. The first
// interceptor is outermost: Chain(h, a, b) runs a(b(h)).
func Chain(h Handler, interceptors ...Interceptor) Handler {
	for i := len(interceptors) - 1; i >= 0; i-- {
		h = interceptors[i](h)
	}
	return h
}

// Endpoint is what a windowed sender posts to (SendWindowed): a Wire, a
// metadata rank, or the metadata cluster, which routes each message to
// its rank.
type Endpoint interface {
	// Post hands a message to the endpoint without charging wire
	// latency; the handler manages all timing itself. Bulk transfers
	// (journal merges, decouple control traffic) use Post so their
	// calibrated cost model stays intact.
	Post(p runtime.Task, msg any) any
}

// Wire is the concrete endpoint for one server: a request/reply link
// with symmetric latency. The handler runs inline in the caller's task,
// inside the server's lock domain — the wire is where a task crosses
// from one daemon into another. On the simulator the domain is a no-op
// and Call charges lat of virtual time each way, so simulated schedules
// are unchanged. On the real backend the caller gives up its own domain
// for the server's (that hand-over is the in-process message hop; with
// loopback TCP enabled a Call first makes one real socket round trip,
// whose frame and echo stand for the request and the reply) and holds
// it only while it runs: a handler that parks mid-request — MergeWait
// does — releases the domain, so it never wedges the endpoint.
type Wire struct {
	name string
	lat  runtime.Duration

	// dom is the server's lock domain: bound by the server that owns the
	// wire, or created from the first caller's runtime for a wire that
	// stands alone.
	dom atomic.Pointer[runtime.Domain]

	// h is the interceptor-wrapped handler. It is an atomic pointer so
	// Wrap — a mutation after construction — is safe against Calls
	// already in flight on the real backend: a concurrent Call sees
	// either the old or the new chain, never a torn one. Install
	// interceptors before serving whenever possible; Wrap itself is not
	// safe to call concurrently with another Wrap.
	h atomic.Pointer[Handler]
}

// NewWire builds an endpoint that charges lat on each direction of a
// Call and runs h in the calling task.
func NewWire(name string, lat runtime.Duration, h Handler) *Wire {
	w := &Wire{name: name, lat: lat}
	w.h.Store(&h)
	return w
}

// Name identifies the wire's server ("mds.0").
func (w *Wire) Name() string { return w.name }

// Bind makes d the domain handlers run in. A server binds its own
// domain before serving, so its handlers and its other entry points
// exclude each other.
func (w *Wire) Bind(d runtime.Domain) { w.dom.Store(&d) }

// domain returns the wire's domain, creating one on first use when no
// server bound its own.
func (w *Wire) domain(p runtime.Task) runtime.Domain {
	if d := w.dom.Load(); d != nil {
		return *d
	}
	d := p.Runtime().NewDomain(w.name)
	if w.dom.CompareAndSwap(nil, &d) {
		return d
	}
	return *w.dom.Load()
}

// Wrap composes an interceptor around the wire's handler, outermost.
// Chaos harnesses use it to slide a fault interceptor under an already
// constructed endpoint; with no interceptor installed the wire is
// untouched. Prefer installing interceptors before the endpoint starts
// serving; when that is impossible (mid-run fault injection), the swap
// is atomic with respect to concurrent Calls, but concurrent Wrap calls
// must be externally serialized.
func (w *Wire) Wrap(ic Interceptor) {
	h := ic(*w.h.Load())
	w.h.Store(&h)
}

// netHopper is the capability of a runtime whose wire is real: NetHop
// carries one Call's request and reply (realrt: the optional
// loopback-TCP round trip) in place of the two modeled latency charges.
type netHopper interface {
	NetHop(t runtime.Task)
}

// Call sends a request and waits for the reply, charging one network
// round trip (the RPCs mechanism): request on the wire, handler, reply on
// the wire. A real wire makes its one round trip before the handler, not
// around it: a reply cannot leave before the handler has finished, so
// overlapping the two would under-report the Call.
func (w *Wire) Call(p runtime.Task, msg any) any {
	if nh, ok := p.Runtime().(netHopper); ok {
		nh.NetHop(p)
		return w.Post(p, msg)
	}
	p.Sleep(w.lat)
	reply := w.Post(p, msg)
	p.Sleep(w.lat)
	return reply
}

// Post implements Endpoint: the handler self-charges all costs.
func (w *Wire) Post(p runtime.Task, msg any) any {
	d := w.domain(p)
	d.Enter(p)
	defer d.Leave(p)
	return (*w.h.Load())(p, msg)
}
