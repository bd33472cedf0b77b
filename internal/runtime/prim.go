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
// the three queueing calls of its Resource (Acquire, TryAcquire, Release)
// so that those read its clock and take its lock without a dynamic call.

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
// busy-time integral — and every reporting method of the Resource
// interface. A backend's Resource embeds one and adds the queueing calls,
// built from Request, Admit, Enqueue, Waited, Vacate and HandOff; those take the
// time from the caller and expect the caller to hold the ledger's lock.
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
// Only a change of inUse and the utilization reports call it: every extra
// call splits a float sum, and BusyArea is compared bit for bit.
func (l *Ledger) Account(now Time) {
	l.busyArea += float64(l.inUse) * (now - l.lastChange).Seconds()
	l.lastChange = now
}

// Admit takes a unit if one is free and no task queues for it.
func (l *Ledger) Admit(now Time) bool {
	if l.inUse < l.capacity && len(l.queue) == 0 {
		l.Account(now)
		l.inUse++
		return true
	}
	return false
}

// Request is Admit for an Acquire, which is counted whether or not it
// has to queue.
func (l *Ledger) Request(now Time) bool {
	l.acquires++
	return l.Admit(now)
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

// Name returns the resource name.
func (l *Ledger) Name() string { return l.name }

// Capacity returns the configured capacity.
func (l *Ledger) Capacity() int { return l.capacity }

// InUse returns the number of units currently held.
func (l *Ledger) InUse() int {
	l.lock.Lock()
	defer l.lock.Unlock()
	return l.inUse
}

// QueueLen returns the number of tasks waiting to acquire.
func (l *Ledger) QueueLen() int {
	l.lock.Lock()
	defer l.lock.Unlock()
	return len(l.queue)
}

// Acquires returns the total number of Acquire calls, granted at once or
// queued; TryAcquire is not counted.
func (l *Ledger) Acquires() uint64 {
	l.lock.Lock()
	defer l.lock.Unlock()
	return l.acquires
}

// MeanWait returns the mean queueing delay across all acquires.
func (l *Ledger) MeanWait() Duration {
	l.lock.Lock()
	defer l.lock.Unlock()
	if l.acquires == 0 {
		return 0
	}
	return l.waitTotal / Duration(l.acquires)
}

// Utilization returns the mean busy fraction (busy unit·time over
// capacity·time) from the runtime's start to now.
func (l *Ledger) Utilization() float64 { return l.Snapshot().Utilization }

// UtilizationMark snapshots the accounting state at the current time.
func (l *Ledger) UtilizationMark() ResourceMark {
	s := l.Snapshot()
	return ResourceMark{At: s.At, BusyArea: s.BusyArea}
}

// UtilizationSince returns the mean busy fraction between mark and now.
func (l *Ledger) UtilizationSince(mark ResourceMark) float64 {
	s := l.Snapshot()
	dt := (s.At - mark.At).Seconds()
	if dt <= 0 {
		return 0
	}
	return (s.BusyArea - mark.BusyArea) / (dt * float64(l.capacity))
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

type pipe struct {
	res  Resource
	rate float64 // bytes per second
	sent atomic.Uint64
}

// NewPipe returns a Pipe that serializes transfers through res, a
// capacity-1 resource of the same backend; rate must be positive.
func NewPipe(res Resource, rate float64) Pipe {
	if rate <= 0 {
		panic(fmt.Sprintf("runtime: pipe %q rate %v <= 0", res.Name(), rate))
	}
	return &pipe{res: res, rate: rate}
}

func (pp *pipe) Transfer(t Task, n int64) {
	if n < 0 {
		panic("runtime: negative transfer size")
	}
	pp.sent.Add(uint64(n))
	pp.res.Use(t, Duration(float64(n)/pp.rate*1e9))
}

func (pp *pipe) Rate() float64                           { return pp.rate }
func (pp *pipe) Bytes() uint64                           { return pp.sent.Load() }
func (pp *pipe) Utilization() float64                    { return pp.res.Utilization() }
func (pp *pipe) UtilizationMark() ResourceMark           { return pp.res.UtilizationMark() }
func (pp *pipe) UtilizationSince(m ResourceMark) float64 { return pp.res.UtilizationSince(m) }
func (pp *pipe) Snapshot() ResourceSnapshot              { return pp.res.Snapshot() }
