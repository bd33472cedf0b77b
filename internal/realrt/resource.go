package realrt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cudele/internal/runtime"
)

// task asserts a runtime.Task down to this engine's concrete task type.
func task(t runtime.Task) *Task {
	tt, ok := t.(*Task)
	if !ok {
		panic(fmt.Sprintf("realrt: task %T is not a real-backend task", t))
	}
	return tt
}

// Signal is the real backend's one-shot condition. It is fired and
// waited from any domain, so mu guards its fields; the park/unpark
// protocol is Task.markParked/park/wake.
type Signal struct {
	mu      sync.Mutex
	fired   bool
	val     any
	waiters []*Task
}

// Fire releases all current and future waiters, handing them val.
func (s *Signal) Fire(val any) {
	s.mu.Lock()
	if s.fired {
		s.mu.Unlock()
		panic("realrt: Signal fired twice")
	}
	s.fired = true
	s.val = val
	waiters := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, w := range waiters {
		w.wake()
	}
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// Wait blocks t until the signal fires and returns the fired value.
func (s *Signal) Wait(t runtime.Task) any {
	tt := task(t)
	tt.mayPark()
	s.mu.Lock()
	if !s.fired {
		s.waiters = append(s.waiters, tt)
		tt.markParked()
		s.mu.Unlock()
		tt.park()
		s.mu.Lock()
	}
	val := s.val
	s.mu.Unlock()
	return val
}

// Group mirrors sim.Group on the real backend; its tasks start in dom.
type Group struct {
	dom  *Domain
	n    atomic.Int64
	done Signal
}

// Add registers delta more tasks the group will wait for.
func (g *Group) Add(delta int) { g.add(delta) }

// add adjusts the count and returns the new value.
func (g *Group) add(delta int) int64 {
	n := g.n.Add(int64(delta))
	if n < 0 {
		panic("realrt: Group counter below zero")
	}
	return n
}

// Done marks one task finished, firing the completion signal at zero.
func (g *Group) Done() {
	if g.add(-1) == 0 && !g.done.Fired() {
		g.done.Fire(nil)
	}
}

// Go spawns fn as a task tracked by the group.
func (g *Group) Go(name string, fn func(t runtime.Task)) {
	g.Add(1)
	g.dom.Spawn(name, func(t runtime.Task) {
		defer g.Done()
		fn(t)
	})
}

// Wait blocks t until the group count reaches zero.
func (g *Group) Wait(t runtime.Task) {
	if g.n.Load() == 0 {
		return
	}
	g.done.Wait(t)
}

// Resource is the real backend's FIFO server. Same shape and accounting
// as sim.Resource, but the busy-time integral runs on wall time. It is
// acquired and released from any domain, so mu guards its fields.
type Resource struct {
	eng      *Engine
	name     string
	capacity int

	mu    sync.Mutex
	inUse int
	queue []*Task

	busyArea   float64 // integral of inUse over time, unit·seconds
	lastChange runtime.Time
	acquires   uint64
	waitTotal  runtime.Duration
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inUse
}

// QueueLen returns the number of tasks waiting to acquire.
func (r *Resource) QueueLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queue)
}

// account folds the time since the last change into the busy integral.
// Caller holds r.mu.
func (r *Resource) account() {
	now := r.eng.Now()
	r.busyArea += float64(r.inUse) * (now - r.lastChange).Seconds()
	r.lastChange = now
}

// Acquire takes one unit, blocking t in FIFO order until one is free.
func (r *Resource) Acquire(t runtime.Task) {
	tt := task(t)
	tt.mayPark()
	r.mu.Lock()
	r.acquires++
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.account()
		r.inUse++
		r.mu.Unlock()
		return
	}
	start := r.eng.Now()
	r.queue = append(r.queue, tt)
	tt.markParked()
	r.mu.Unlock()
	tt.park()
	// Woken by Release with the unit already transferred to us.
	r.mu.Lock()
	r.waitTotal += runtime.Duration(r.eng.Now() - start)
	r.mu.Unlock()
}

// TryAcquire takes one unit if immediately available.
func (r *Resource) TryAcquire() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.account()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit and hands it to the head waiter, if any.
func (r *Resource) Release() {
	r.mu.Lock()
	if r.inUse <= 0 {
		r.mu.Unlock()
		panic(fmt.Sprintf("realrt: resource %q released below zero", r.name))
	}
	if len(r.queue) > 0 {
		// Transfer the unit directly: inUse stays constant.
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()
		next.wake()
		return
	}
	r.account()
	r.inUse--
	r.mu.Unlock()
}

// Use acquires one unit, holds it for service duration d, then releases.
func (r *Resource) Use(t runtime.Task, d runtime.Duration) {
	r.Acquire(t)
	t.Sleep(d)
	r.Release()
}

// Utilization returns mean busy fraction since the engine started.
func (r *Resource) Utilization() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.utilization()
}

func (r *Resource) utilization() float64 {
	r.account()
	elapsed := r.eng.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return r.busyArea / (elapsed * float64(r.capacity))
}

// UtilizationMark snapshots the accounting state at the current time.
func (r *Resource) UtilizationMark() runtime.ResourceMark {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.account()
	return runtime.ResourceMark{At: r.eng.Now(), BusyArea: r.busyArea}
}

// UtilizationSince returns the mean busy fraction between mark and now.
func (r *Resource) UtilizationSince(mark runtime.ResourceMark) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.account()
	dt := (r.eng.Now() - mark.At).Seconds()
	if dt <= 0 {
		return 0
	}
	return (r.busyArea - mark.BusyArea) / (dt * float64(r.capacity))
}

// Acquires returns the total number of grants requested.
func (r *Resource) Acquires() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acquires
}

// MeanWait returns the mean queueing delay across all acquires.
func (r *Resource) MeanWait() runtime.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.acquires == 0 {
		return 0
	}
	return r.waitTotal / runtime.Duration(r.acquires)
}

// Snapshot returns a copy of the accounting state.
func (r *Resource) Snapshot() runtime.ResourceSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.account()
	return runtime.ResourceSnapshot{
		Name:        r.name,
		Capacity:    r.capacity,
		InUse:       r.inUse,
		QueueLen:    len(r.queue),
		Acquires:    r.acquires,
		BusyArea:    r.busyArea,
		WaitTotal:   r.waitTotal,
		Utilization: r.utilization(),
		At:          r.eng.Now(),
	}
}

// Pipe is the real backend's bandwidth pipe: transfers serialize FIFO
// and take n/rate seconds of wall time. When the object store persists
// to a real disk it bypasses pipe charges entirely (the fsync is the
// cost), so on the real backend pipes mostly model the network.
type Pipe struct {
	res  *Resource
	rate float64
	sent atomic.Uint64
}

// Transfer moves n bytes through the pipe.
func (pp *Pipe) Transfer(t runtime.Task, n int64) {
	if n < 0 {
		panic("realrt: negative transfer size")
	}
	pp.sent.Add(uint64(n))
	d := runtime.Duration(float64(n) / pp.rate * 1e9)
	pp.res.Use(t, d)
}

// Rate returns the configured bandwidth in bytes per second.
func (pp *Pipe) Rate() float64 { return pp.rate }

// Bytes returns the total bytes pushed through the pipe.
func (pp *Pipe) Bytes() uint64 { return pp.sent.Load() }

// Utilization returns the pipe's busy fraction since engine start.
func (pp *Pipe) Utilization() float64 { return pp.res.Utilization() }

// UtilizationMark snapshots pipe accounting for windowed measurement.
func (pp *Pipe) UtilizationMark() runtime.ResourceMark { return pp.res.UtilizationMark() }

// UtilizationSince returns busy fraction since mark.
func (pp *Pipe) UtilizationSince(m runtime.ResourceMark) float64 { return pp.res.UtilizationSince(m) }

// Snapshot returns the pipe's finalized utilization accounting.
func (pp *Pipe) Snapshot() runtime.ResourceSnapshot { return pp.res.Snapshot() }
