package sim

import (
	"fmt"

	"cudele/internal/runtime"
)

// task asserts a runtime.Task down to this engine's concrete process
// type. Every blocking primitive goes through it, so handing a real
// backend's task to a simulated resource fails loudly.
func task(t runtime.Task) *Proc {
	p, ok := t.(*Proc)
	if !ok {
		panic(fmt.Sprintf("sim: task %T is not a simulation process", t))
	}
	return p
}

// Signal is a one-shot condition: processes Wait on it and are all released
// when Fire is called. Fire may be called before any Wait, in which case
// Wait returns immediately. Signals carry an optional value.
type Signal struct {
	eng     *Engine
	fired   bool
	val     interface{}
	waiters []*Proc
}

// NewSignal creates a signal bound to engine e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Fire releases all current and future waiters, handing them val.
// Firing twice panics: a signal is one-shot by design.
func (s *Signal) Fire(val interface{}) {
	if s.fired {
		panic("sim: Signal fired twice")
	}
	s.fired = true
	s.val = val
	for _, w := range s.waiters {
		s.eng.Schedule(0, w.wake)
	}
	s.waiters = nil
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Wait blocks t until the signal fires and returns the fired value.
func (s *Signal) Wait(t runtime.Task) interface{} {
	if !s.fired {
		p := task(t)
		s.waiters = append(s.waiters, p)
		p.block()
	}
	return s.val
}

// Resource is a server with integer capacity and a FIFO queue. It tracks
// busy time so utilization can be reported. A Resource with capacity 1
// models an exclusive device (one CPU core, one disk head); higher
// capacities model pools.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	queue    []*Proc

	// accounting
	busyArea   float64 // integral of inUse over time, in unit·seconds
	lastChange Time
	acquires   uint64
	waitTotal  Duration
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	r := &Resource{eng: e, name: name, capacity: capacity}
	e.resources = append(e.resources, r)
	return r
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.queue) }

func (r *Resource) account() {
	now := r.eng.now
	r.busyArea += float64(r.inUse) * (now - r.lastChange).Seconds()
	r.lastChange = now
}

// Acquire takes one unit, blocking t in FIFO order until one is free.
func (r *Resource) Acquire(t runtime.Task) {
	p := task(t)
	r.acquires++
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.account()
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.waitStart = r.eng.now
	p.block()
	// Woken by Release with the unit already transferred to us.
	r.waitTotal += Duration(r.eng.now - p.waitStart)
}

// TryAcquire takes one unit if immediately available and reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.account()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit and hands it to the head waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: resource %q released below zero", r.name))
	}
	if len(r.queue) > 0 {
		// Transfer the unit directly: inUse stays constant, so no
		// accounting edge. Shifting down keeps the backing array.
		next := r.queue[0]
		r.queue = r.queue[:copy(r.queue, r.queue[1:])]
		r.eng.Schedule(0, next.wake)
		return
	}
	r.account()
	r.inUse--
}

// Use acquires one unit, holds it for service duration d, then releases.
// This is the common "serve one request" pattern.
func (r *Resource) Use(t runtime.Task, d Duration) {
	r.Acquire(t)
	t.Sleep(d)
	r.Release()
}

// Utilization returns mean busy fraction (busy unit·time / capacity·time)
// over the window from simulation start to now.
func (r *Resource) Utilization() float64 {
	r.account()
	elapsed := r.eng.now.Seconds()
	if elapsed <= 0 {
		return 0
	}
	return r.busyArea / (elapsed * float64(r.capacity))
}

// UtilizationSince returns the mean busy fraction between mark and now,
// where mark was obtained from UtilizationMark.
func (r *Resource) UtilizationSince(mark ResourceMark) float64 {
	r.account()
	dt := (r.eng.now - mark.At).Seconds()
	if dt <= 0 {
		return 0
	}
	return (r.busyArea - mark.BusyArea) / (dt * float64(r.capacity))
}

// ResourceMark is a snapshot of resource accounting, for windowed
// utilization measurements.
type ResourceMark = runtime.ResourceMark

// UtilizationMark snapshots the accounting state at the current time.
func (r *Resource) UtilizationMark() ResourceMark {
	r.account()
	return ResourceMark{At: r.eng.now, BusyArea: r.busyArea}
}

// Acquires returns the total number of Acquire calls, granted at once or
// queued; TryAcquire is not counted.
func (r *Resource) Acquires() uint64 { return r.acquires }

// ResourceSnapshot is a copy of a resource's utilization accounting at a
// point in virtual time, the public export surface for the busy-time
// integral the resource has always tracked internally.
type ResourceSnapshot = runtime.ResourceSnapshot

// Snapshot finalizes the busy-time integral through the current virtual
// time and returns a copy of the accounting state. Calling it at
// end-of-run is always accurate: the integral is brought up to date here
// (and again by the engine whenever its event loop stops), so the final
// interval between the last state change and the end of the run is never
// undercounted.
func (r *Resource) Snapshot() ResourceSnapshot {
	r.account()
	return ResourceSnapshot{
		Name:        r.name,
		Capacity:    r.capacity,
		InUse:       r.inUse,
		QueueLen:    len(r.queue),
		Acquires:    r.acquires,
		BusyArea:    r.busyArea,
		WaitTotal:   r.waitTotal,
		Utilization: r.Utilization(),
		At:          r.eng.now,
	}
}

// MeanWait returns the mean queueing delay across all acquires.
func (r *Resource) MeanWait() Duration {
	if r.acquires == 0 {
		return 0
	}
	return r.waitTotal / Duration(r.acquires)
}

// Pipe models a store-and-forward link or device with a fixed bandwidth in
// bytes per second. Transfers are serialized FIFO through the pipe, so
// concurrent transfers queue, which matches a single NIC or disk channel.
type Pipe struct {
	res  *Resource
	rate float64 // bytes per second
	sent uint64
}

// NewPipe creates a bandwidth pipe. rate must be positive (bytes/second).
func NewPipe(e *Engine, name string, rate float64) *Pipe {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: pipe %q rate %v <= 0", name, rate))
	}
	return &Pipe{res: NewResource(e, name, 1), rate: rate}
}

// Transfer moves n bytes through the pipe, blocking t for queueing plus
// n/rate seconds of service time.
func (pp *Pipe) Transfer(t runtime.Task, n int64) {
	if n < 0 {
		panic("sim: negative transfer size")
	}
	pp.sent += uint64(n)
	d := Duration(float64(n) / pp.rate * 1e9)
	pp.res.Use(t, d)
}

// Rate returns the configured bandwidth in bytes per second.
func (pp *Pipe) Rate() float64 { return pp.rate }

// Bytes returns the total bytes pushed through the pipe.
func (pp *Pipe) Bytes() uint64 { return pp.sent }

// Utilization returns the pipe's busy fraction since simulation start.
func (pp *Pipe) Utilization() float64 { return pp.res.Utilization() }

// UtilizationMark snapshots pipe accounting for windowed measurement.
func (pp *Pipe) UtilizationMark() ResourceMark { return pp.res.UtilizationMark() }

// Snapshot returns the pipe's finalized utilization accounting.
func (pp *Pipe) Snapshot() ResourceSnapshot { return pp.res.Snapshot() }

// UtilizationSince returns busy fraction since mark.
func (pp *Pipe) UtilizationSince(m ResourceMark) float64 { return pp.res.UtilizationSince(m) }
