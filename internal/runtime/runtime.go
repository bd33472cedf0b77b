// Package runtime is the execution seam between the Cudele protocol
// stack and whatever actually runs it. The client, metadata service,
// monitor, object store, and transport program against these interfaces
// — spawn, sleep, now, block/wake, rand, tracer — and never against a
// concrete engine, so the same protocol code runs on two backends:
//
//   - the deterministic discrete-event simulator (internal/sim), where
//     tasks are coroutine-style processes on a virtual clock and device
//     costs are charged by a calibrated model; and
//   - the real backend (internal/realrt), where tasks are goroutines,
//     the clock is wall time, and durability means fsynced files.
//
// The contract both backends honor (and that contract_test.go checks):
// every piece of protocol state belongs to one lock Domain — a metadata
// rank, the monitor, the object store, a client, or the root domain of
// harness code — and at most one task executes inside a domain at a
// time. The simulator gets this for free (each process is a coroutine
// the event loop switches into, one at a time, so its domains are
// no-ops); the real backend gives each domain a lock that a task holds
// while inside it and releases whenever it sleeps, parks, enters
// Blocking, or enters another domain. A task
// holds exactly one domain lock at a time, so no lock order exists to
// get wrong, and every cross-daemon call is a yield point — the same
// places the simulator already yields at a Sleep. Protocol state needs
// no fine-grained locking in either mode, and the simulated schedule
// stays byte-identical to what it was before the seam existed.
//
// The blocking primitives are written once, here (prim.go): Signal,
// Group, Pipe, and the Ledger that is a Resource's queue, busy-time
// integral and reporting methods. What a backend writes is the kernel
// under them — a Clock, a sync.Locker per object (NoLock where one task
// runs at a time), its tasks' Parker methods — plus Domain, Spawn and the
// two queueing calls of its Resource, which stay per backend so that
// they reach the backend's clock and lock without a dynamic call.
package runtime

import (
	"math/rand"
	"time"

	"cudele/internal/trace"
)

// Time is a point in time in nanoseconds since the runtime started:
// virtual nanoseconds on the simulator, wall-clock nanoseconds on the
// real backend.
type Time int64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Duration is a span of time in nanoseconds. It is time.Duration, so
// literals and formatting work unchanged on both backends.
type Duration = time.Duration

// Kind names the backend, for callers that choose one (the facade's
// WithBackend) or report which one ran.
type Kind int

const (
	// SimKind is the deterministic discrete-event simulator.
	SimKind Kind = iota
	// RealKind runs tasks as goroutines on wall time.
	RealKind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == RealKind {
		return "real"
	}
	return "sim"
}

// Clock is the read-only time source shared by every layer.
type Clock interface {
	// Now returns the current time (virtual or wall).
	Now() Time
}

// Task is one logical thread of protocol execution: a simulation
// process or a goroutine. All Task methods must be called from the
// task's own execution context.
type Task interface {
	Clock
	// Name returns the name given at spawn.
	Name() string
	// Sleep suspends the task for d (virtual or wall nanoseconds); Sleep(0)
	// gives other runnable tasks a chance to run.
	Sleep(d Duration)
	// Blocking runs fn outside the domain discipline: the real backend
	// releases the task's current domain around fn so true I/O (fsync,
	// socket round trips) does not stall the domain's other tasks; the
	// simulator calls fn inline. fn must not touch protocol state.
	Blocking(fn func())
	// Runtime returns the runtime that owns this task.
	Runtime() Runtime
}

// Runtime is what a backend provides: task spawning, synchronization
// primitives, device models, randomness, and observability.
type Runtime interface {
	Clock
	// Kind reports which backend this is.
	Kind() Kind
	// Rand returns the runtime's seeded random source, for harness code:
	// tasks of any domain may draw from it (the real backend's source is
	// locked); never use it from outside a task. Protocol code draws from
	// its daemon's Domain.Rand instead.
	Rand() *rand.Rand
	// Tracer returns the span recorder; nil means tracing is disabled.
	Tracer() *trace.Recorder
	// SetTracer installs a span recorder (nil disables tracing).
	SetTracer(r *trace.Recorder)

	// Spawn starts a new task executing fn in the root domain — the
	// domain of harness code, so tasks spawned from outside any daemon
	// exclude each other between their calls into daemons.
	Spawn(name string, fn func(t Task))
	// NewDomain creates a lock domain (see Domain). The simulator returns
	// one shared no-op.
	NewDomain(name string) Domain
	// NewSignal creates a one-shot condition.
	NewSignal() Signal
	// NewGroup creates a task completion group whose tasks start in the
	// root domain.
	NewGroup() Group
	// NewResource creates a FIFO server with the given capacity.
	NewResource(name string, capacity int) Resource
	// NewPipe creates a bandwidth pipe (rate in bytes per second).
	NewPipe(name string, rate float64) Pipe

	// Exclusive runs fn with no other task inside any domain — for the
	// few steps that touch several daemons' state in one move (subtree
	// placement copies between two ranks' stores and flips the routing
	// table) and for the admin endpoint, which scrapes live cluster
	// state from an HTTP handler goroutine. t is the calling task, nil
	// for a caller outside any task, as for Domain.Enter. The real
	// backend releases t's domain, takes every domain in creation order
	// around fn and gives t its domain back; fn must not sleep, park or
	// enter a domain. The simulator calls fn inline, and panics when t
	// is nil and the event loop is running, since an outside caller
	// cannot interleave with it safely.
	Exclusive(t Task, fn func())

	// RunAll drives the runtime until no task can make further
	// progress and returns the final time. On the simulator that means
	// the event queue drained; on the real backend it means every task
	// finished or is blocked with nothing left to wake it.
	RunAll() Time
	// LeakCheck returns an error naming any still-live tasks; call it
	// after RunAll to assert the workload drained cleanly.
	LeakCheck() error
	// Shutdown reaps every live task (unwinding blocked ones) so no
	// goroutine outlives the runtime, and returns the number reaped.
	Shutdown() int
}

// Domain is a lock domain: the unit of mutual exclusion. Each daemon
// owns one and enters it at every exported operation that touches its
// state; background tasks of the daemon are spawned inside it.
//
// Enter is re-entrant per task and Enter/Leave calls nest. On the real
// backend Enter releases the domain the task was in before taking the
// new one, and Leave hands the task back the other way, so a task never
// holds two domain locks and the state of the domain it left may change
// while it is away. A nil task stands for a caller outside task context
// that already excludes every task — set-up code before tasks run, or
// code under Exclusive — and makes Enter and Leave no-ops.
type Domain interface {
	// Enter moves t into the domain.
	Enter(t Task)
	// Leave returns t to the domain it was in before the matching Enter.
	Leave(t Task)
	// Spawn starts a new task executing fn inside the domain.
	Spawn(name string, fn func(t Task))
	// NewGroup creates a completion group whose tasks start inside the
	// domain.
	NewGroup() Group
	// Rand returns the domain's random source; only a task inside the
	// domain may draw from it. On the simulator it is the engine's one
	// source, so draws keep their order across domains. On the real
	// backend it is the domain's own, unlocked, seeded from the engine's
	// source when the domain was created: daemons that draw on every
	// request share no lock for it.
	Rand() *rand.Rand
}

// Signal is a one-shot condition: tasks Wait on it and are all released
// when Fire is called, receiving the fired value. Firing twice panics.
// Signals, groups, resources and pipes may be used from any domain.
type Signal interface {
	Fire(val any)
	Fired() bool
	Wait(t Task) any
}

// Group waits for a set of tasks to finish, like a WaitGroup, once: its
// completion is a Signal that fires the first time the count returns to
// zero and stays fired. Add everything that is to be waited for before
// that — start the tasks from one task, or while holding their domain —
// and make a new group for the next batch. A group used again after it
// has completed still counts, and still panics below zero, but a Wait on
// it while the count is above zero returns at once instead of parking
// (TestContractGroupAfterZero pins this on both backends).
type Group interface {
	Add(delta int)
	Done()
	// Go spawns fn as a task tracked by the group.
	Go(name string, fn func(t Task))
	// Wait blocks t until the group count reaches zero.
	Wait(t Task)
}

// Resource is a server with integer capacity and a FIFO queue; it
// tracks busy time so utilization can be reported. Snapshot carries every
// counter: capacity, units in use, queue length, acquires, total wait and
// mean utilization.
type Resource interface {
	Name() string
	// Acquire takes one unit, blocking t in FIFO order until one frees.
	Acquire(t Task)
	// Release returns one unit, handing it to the head waiter if any.
	Release()
	// Use acquires, holds for service duration d, then releases.
	Use(t Task, d Duration)
	UtilizationMark() ResourceMark
	UtilizationSince(mark ResourceMark) float64
	Snapshot() ResourceSnapshot
}

// Pipe models a store-and-forward link or device with fixed bandwidth
// in bytes per second; transfers serialize FIFO through it.
type Pipe interface {
	// Transfer moves n bytes through the pipe, blocking t for queueing
	// plus n/rate seconds of service time.
	Transfer(t Task, n int64)
	UtilizationMark() ResourceMark
	UtilizationSince(mark ResourceMark) float64
	Snapshot() ResourceSnapshot
}

// ResourceMark is a snapshot of resource accounting, for windowed
// utilization measurements.
type ResourceMark struct {
	At       Time
	BusyArea float64
}

// ResourceSnapshot is a copy of a resource's utilization accounting at
// a point in time.
type ResourceSnapshot struct {
	Name     string
	Capacity int
	InUse    int
	QueueLen int

	Acquires    uint64
	BusyArea    float64 // integral of in-use units over time, unit·seconds
	WaitTotal   Duration
	Utilization float64 // mean busy fraction since runtime start
	At          Time    // when the snapshot was taken
}
