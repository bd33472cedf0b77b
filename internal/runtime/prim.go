package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file holds the only implementations of Signal, Group and Pipe, and
// the state and reporting half of every Resource (the Ledger). They are
// written over the kernel a backend states in a few calls: a Clock, one
// sync.Locker per object, and its tasks' Parker methods. A backend keeps
// the two queueing calls of its Resource (Acquire, Release) so that those
// read its clock and take its lock without a dynamic call.

// Parker is the blocking half of a backend's task, which every Task a
// backend hands out also implements.
type Parker interface {
	// MayPark unwinds a task that must not block now (one being reaped);
	// primitives call it before they look at their own state.
	MayPark()
	// Park suspends the task until Wake. The caller has queued the task
	// on a primitive and holds l, that primitive's lock; Park gives l up
	// while the task is suspended and returns holding it, or unwinds
	// (l released) when the task is reaped.
	Park(l sync.Locker)
	// Wake resumes the task after the current one yields, in the order
	// the calls are made. It is called with no primitive's lock held.
	Wake()
}

// NoLock is the per-object lock of a backend that runs one task at a time.
type NoLock struct{}

func (NoLock) Lock()   {}
func (NoLock) Unlock() {}

type signal struct {
	lock    sync.Locker
	fired   bool
	val     any
	waiters []Parker
}

// NewSignal returns an unfired Signal guarded by lock.
func NewSignal(lock sync.Locker) Signal { return &signal{lock: lock} }

func (s *signal) Fire(val any) {
	s.lock.Lock()
	if s.fired {
		s.lock.Unlock()
		panic("runtime: Signal fired twice")
	}
	s.fired, s.val = true, val
	waiters := s.waiters
	s.waiters = nil
	s.lock.Unlock()
	for _, w := range waiters {
		w.Wake()
	}
}

func (s *signal) Fired() bool {
	s.lock.Lock()
	defer s.lock.Unlock()
	return s.fired
}

func (s *signal) Wait(t Task) any {
	p := t.(Parker)
	p.MayPark()
	s.lock.Lock()
	if !s.fired {
		s.waiters = append(s.waiters, p)
		p.Park(s.lock) // not deferred: a reaped task unwinds with the lock released
	}
	val := s.val
	s.lock.Unlock()
	return val
}

type group struct {
	dom  Domain
	n    atomic.Int64
	done signal
}

// NewGroup returns an empty Group guarded by lock whose tasks start in dom.
func NewGroup(lock sync.Locker, dom Domain) Group {
	return &group{dom: dom, done: signal{lock: lock}}
}

func (g *group) Add(delta int) { g.add(delta) }

func (g *group) add(delta int) int64 {
	n := g.n.Add(int64(delta))
	if n < 0 {
		panic("runtime: Group counter below zero")
	}
	return n
}

func (g *group) Done() {
	if g.add(-1) == 0 && !g.done.Fired() {
		g.done.Fire(nil)
	}
}

func (g *group) Go(name string, fn func(t Task)) {
	g.Add(1)
	g.dom.Spawn(name, func(t Task) {
		defer g.Done()
		fn(t)
	})
}

// Wait returns at once on a group with nothing pending, used or not.
func (g *group) Wait(t Task) {
	if g.n.Load() != 0 {
		g.done.Wait(t)
	}
}

// Ledger is a Resource's state — units in use, the FIFO of waiters, the
// busy-time integral — and Snapshot, the Resource interface's one
// report. A backend's Resource embeds one and adds the queueing calls,
// built from Request, Enqueue, Waited, Queued, Vacate and HandOff; those
// take the time from the caller and expect the caller to hold the
// ledger's lock.
type Ledger struct {
	clock    Clock
	lock     sync.Locker
	name     string
	capacity int
	inUse    int
	queue    []Parker

	busyArea   float64 // integral of inUse over time, in unit·seconds
	lastChange Time
	acquires   uint64
	waitTotal  Duration
}

// Init sets up the ledger of a resource with the given capacity (>= 1).
func (l *Ledger) Init(clock Clock, lock sync.Locker, name string, capacity int) {
	if capacity < 1 {
		panic(fmt.Sprintf("runtime: resource %q capacity %d < 1", name, capacity))
	}
	l.clock, l.lock, l.name, l.capacity = clock, lock, name, capacity
}

// Account folds the time since the last change into the busy integral.
// Only a change of inUse and Snapshot call it: every extra
// call splits a float sum, and BusyArea is compared bit for bit.
func (l *Ledger) Account(now Time) {
	l.busyArea += float64(l.inUse) * (now - l.lastChange).Seconds()
	l.lastChange = now
}

// Request counts an Acquire, whether or not it has to queue, and takes a
// unit if one is free and no task queues for it.
func (l *Ledger) Request(now Time) bool {
	l.acquires++
	if l.inUse < l.capacity && len(l.queue) == 0 {
		l.Account(now)
		l.inUse++
		return true
	}
	return false
}

// Enqueue puts p at the tail of the FIFO; the caller parks it next.
func (l *Ledger) Enqueue(p Parker) { l.queue = append(l.queue, p) }

// Waited adds one queued task's delay to the wait total.
func (l *Ledger) Waited(d Duration) { l.waitTotal += d }

// Vacate returns one unit if no task queues for it. Otherwise the unit
// is not freed: the caller passes it on with HandOff.
func (l *Ledger) Vacate(now Time) bool {
	if l.inUse > 0 && len(l.queue) == 0 {
		l.Account(now)
		l.inUse--
		return true
	}
	return false
}

// Queued reports whether a task queues for a unit, so that Release will
// hand its unit off rather than vacate it.
func (l *Ledger) Queued() bool { return len(l.queue) > 0 }

// HandOff passes the caller's unit straight to the head waiter — inUse
// stays constant, so there is no accounting edge — and returns that task
// for the caller to Wake once it has let go of the lock.
func (l *Ledger) HandOff() Parker {
	if l.inUse <= 0 {
		panic(fmt.Sprintf("runtime: resource %q released below zero", l.name))
	}
	next := l.queue[0]
	l.queue = l.queue[:copy(l.queue, l.queue[1:])] // shifting down keeps the backing array
	return next
}

// Snapshot brings the busy-time integral up to the current time and
// returns a copy of the accounting state, so the interval between the
// last state change and now is never undercounted.
func (l *Ledger) Snapshot() ResourceSnapshot {
	l.lock.Lock()
	defer l.lock.Unlock()
	now := l.clock.Now()
	l.Account(now)
	s := ResourceSnapshot{
		Name:      l.name,
		Capacity:  l.capacity,
		InUse:     l.inUse,
		QueueLen:  len(l.queue),
		Acquires:  l.acquires,
		BusyArea:  l.busyArea,
		WaitTotal: l.waitTotal,
		At:        now,
	}
	if elapsed := now.Seconds(); elapsed > 0 {
		s.Utilization = l.busyArea / (elapsed * float64(l.capacity))
	}
	return s
}

// Pipe models a store-and-forward link or device with fixed bandwidth
// in bytes per second; transfers serialize FIFO through its resource.
type Pipe struct {
	res  Resource
	rate float64 // bytes per second
}

// NewPipe returns a pipe that serializes transfers through res, a
// capacity-1 resource of the same backend named name; rate must be
// positive.
func NewPipe(res Resource, name string, rate float64) *Pipe {
	if rate <= 0 {
		panic(fmt.Sprintf("runtime: pipe %q rate %v <= 0", name, rate))
	}
	return &Pipe{res: res, rate: rate}
}

// Transfer moves n bytes through the pipe, blocking t for queueing plus
// n/rate seconds of service time.
func (pp *Pipe) Transfer(t Task, n int64) {
	if n < 0 {
		panic("runtime: negative transfer size")
	}
	pp.res.Use(t, Duration(float64(n)/pp.rate*1e9))
}

// Snapshot returns the accounting state of the pipe's resource.
func (pp *Pipe) Snapshot() ResourceSnapshot { return pp.res.Snapshot() }
