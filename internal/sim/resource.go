package sim

import (
	"fmt"

	"cudele/internal/runtime"
)

// task asserts a runtime.Task down to this engine's concrete process
// type, so handing a real backend's task to a simulated resource fails
// loudly.
func task(t runtime.Task) *Proc {
	p, ok := t.(*Proc)
	if !ok {
		panic(fmt.Sprintf("sim: task %T is not a simulation process", t))
	}
	return p
}

// The blocking primitives are internal/runtime's, over this kernel: the
// engine's clock, runtime.NoLock (one process runs at a time) and Proc's
// MayPark, Park and Wake.
type (
	Signal           = runtime.Signal
	Group            = runtime.Group
	Pipe             = runtime.Pipe
	ResourceMark     = runtime.ResourceMark
	ResourceSnapshot = runtime.ResourceSnapshot
)

// NewSignal creates a one-shot condition for processes of e.
func NewSignal(*Engine) Signal { return runtime.NewSignal(runtime.NoLock{}) }

// NewGroup creates an empty completion group whose processes run on e.
func NewGroup(e *Engine) Group { return runtime.NewGroup(runtime.NoLock{}, (*domain)(e)) }

// NewPipe creates a bandwidth pipe. rate must be positive (bytes/second).
func NewPipe(e *Engine, name string, rate float64) Pipe {
	return runtime.NewPipe(NewResource(e, name, 1), rate)
}

// Resource is a server with integer capacity and a FIFO queue. A Resource
// with capacity 1 models an exclusive device (one CPU core, one disk
// head); higher capacities model pools. State and reporting are the
// embedded ledger's; the queueing calls below read the engine's clock
// field directly, which is what keeps an uncontended Acquire+Release at a
// few nanoseconds.
type Resource struct {
	runtime.Ledger
	eng *Engine
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	r := &Resource{eng: e}
	r.Init(e, runtime.NoLock{}, name, capacity)
	e.resources = append(e.resources, r)
	return r
}

// Acquire takes one unit, blocking t in FIFO order until one is free.
func (r *Resource) Acquire(t runtime.Task) {
	p := task(t)
	now := r.eng.now
	if !r.Request(now) {
		r.Enqueue(p)
		p.block()
		// Woken by Release with the unit already transferred to us.
		r.Waited(Duration(r.eng.now - now))
	}
}

// TryAcquire takes one unit if immediately available and reports success.
func (r *Resource) TryAcquire() bool { return r.Admit(r.eng.now) }

// Release returns one unit and hands it to the head waiter, if any.
func (r *Resource) Release() {
	if !r.Vacate(r.eng.now) {
		r.HandOff().Wake()
	}
}

// Use acquires one unit, holds it for service duration d, then releases.
// This is the common "serve one request" pattern.
func (r *Resource) Use(t runtime.Task, d Duration) {
	r.Acquire(t)
	t.Sleep(d)
	r.Release()
}
