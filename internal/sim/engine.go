// Package sim is a deterministic discrete-event simulation kernel.
//
// It provides a virtual clock, coroutine-style processes, FIFO resource
// servers with utilization accounting, bandwidth pipes, and condition
// signals. The Cudele cluster (clients, metadata servers, object storage
// daemons, monitor) is modeled as sim processes that execute the real
// metadata code paths while charging virtual time to simulated devices.
//
// Only one process runs at a time: each is an iter.Pull coroutine that the
// event loop switches into and that switches back when it blocks, so
// simulations are fully deterministic for a given seed and schedule.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"cudele/internal/obs"
	"cudele/internal/runtime"
	"cudele/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since simulation
// start. It aliases runtime.Time so virtual timestamps flow through the
// backend-neutral interfaces without conversion.
type Time = runtime.Time

// Duration is a span of virtual time in nanoseconds. It is convertible to
// and from time.Duration.
type Duration = time.Duration

// event is a scheduled callback. Events are stored by value in the queue
// so scheduling does not allocate (beyond amortized slice growth): the
// simulation schedules one event per operation step, making this the
// hottest allocation site in the whole substrate.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events run FIFO
	fn  func()
}

// before orders events by time, then FIFO by sequence number. The (at,
// seq) pair is unique per event, so the pop order is a total order and
// does not depend on the heap's internal layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of event values. It replaces
// container/heap to avoid both the per-event heap allocation and the
// interface{} boxing on every Push/Pop.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the fn reference
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].before(&h[smallest]) {
			smallest = l
		}
		if r < n && h[r].before(&h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// Engine owns the virtual clock and the event queue.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	rng     *rand.Rand
	running bool
	until   Time // bound of the Run in progress; Sleep's inline advance stays inside it

	procs   int // live process count, for leak detection
	live    map[*Proc]struct{}
	stopped bool

	// tracer is the span recorder every layer records into; nil (the
	// default) disables tracing with zero overhead. It lives on the
	// engine because the engine is the one object all simulated
	// components already share.
	tracer *trace.Recorder

	// flight is the chaos flight recorder; nil (the default) disables
	// it, and recording follows the same never-perturb contract as the
	// tracer.
	flight *obs.Flight

	// resources registers every Resource (and Pipe) created on this
	// engine so Run can finalize their busy-time integrals when the
	// event loop stops — without it, accounting is only updated on
	// state changes and a resource still held (or long idle) at the end
	// of a run reports a stale busyArea to raw snapshot readers.
	resources []*Resource
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded deterministically with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:  rand.New(rand.NewSource(seed)),
		live: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation processes (never concurrently).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Tracer returns the engine's span recorder; nil means tracing is
// disabled (a nil *trace.Recorder accepts and drops every call).
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// SetTracer installs a span recorder. Pass nil to disable tracing.
// Recording charges no virtual time and consumes no randomness, so a
// traced engine executes the exact same schedule as an untraced one.
func (e *Engine) SetTracer(r *trace.Recorder) { e.tracer = r }

// Flight returns the chaos flight recorder; nil means recording is off.
func (e *Engine) Flight() *obs.Flight { return e.flight }

// SetFlight installs a flight recorder. Pass nil to disable it. Like
// the tracer, recording charges no virtual time and consumes no
// randomness, so schedules stay byte-identical with it on.
func (e *Engine) SetFlight(f *obs.Flight) { e.flight = f }

// Exclusive implements runtime.Runtime. The simulator serializes
// everything through the event loop, so fn runs inline — but only from
// outside the loop; an external caller cannot safely interleave with a
// running simulation.
func (e *Engine) Exclusive(fn func()) {
	if e.running {
		panic("sim: Engine.Exclusive called while the event loop is running")
	}
	fn()
}

// Schedule arranges for fn to run at time e.Now()+d. Scheduling with d <= 0
// runs fn as soon as the current process yields.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.queue.push(event{at: e.now + Time(d), seq: e.seq, fn: fn})
}

// Go spawns a new process executing fn. The process starts when the engine
// next reaches the current virtual time in its event loop.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.procs++
	e.live[p] = struct{}{}
	e.Schedule(0, func() {
		p.started = true
		next, _ := iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				p.done = true
				e.procs--
				delete(e.live, p)
				// iter.Pull re-raises this in whoever called next, so a
				// process panic surfaces in Run's caller, naming the process.
				if r := recover(); r != nil && r != errProcKilled {
					panic(&ProcPanic{Proc: name, Value: r, Stack: debug.Stack()})
				}
			}()
			fn(p)
		})
		p.wake = func() { next() }
		p.wake()
	})
	return p
}

// ProcPanic is the value Run panics with when a process panicked: iter.Pull
// carries the panic (or a runtime.Goexit, as from t.Fatal) out of the
// coroutine into the goroutine driving the event loop.
type ProcPanic struct {
	Proc  string
	Value any    // the process's own panic value
	Stack []byte // the process's stack, which the hand-over would lose
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Unwrap exposes a panic value that is an error to errors.Is and errors.As.
func (pp *ProcPanic) Unwrap() error { err, _ := pp.Value.(error); return err }

// Kind implements runtime.Runtime: this is the simulated backend.
func (e *Engine) Kind() runtime.Kind { return runtime.SimKind }

// Spawn implements runtime.Runtime in terms of Go. Protocol code spawns
// through this so it compiles against either backend; sim-specific
// tests and harnesses keep using Go directly.
func (e *Engine) Spawn(name string, fn func(t runtime.Task)) {
	e.Go(name, func(p *Proc) { fn(p) })
}

// domain is the simulator's one lock domain: the engine runs one
// process at a time, so entering and leaving need do nothing and every
// NewDomain call returns the same value — no allocation, no event, no
// change to any schedule.
type domain Engine

func (d *domain) Enter(runtime.Task)      {}
func (d *domain) Leave(runtime.Task)      {}
func (d *domain) NewGroup() runtime.Group { return NewGroup((*Engine)(d)) }
func (d *domain) Rand() *rand.Rand        { return d.rng }
func (d *domain) Spawn(name string, fn func(t runtime.Task)) {
	(*Engine)(d).Spawn(name, fn)
}

// NewDomain implements runtime.Runtime.
func (e *Engine) NewDomain(string) runtime.Domain { return (*domain)(e) }

// Together implements runtime.Runtime: one process runs at a time, so
// fn already has every domain to itself.
func (e *Engine) Together(_ runtime.Task, _ []runtime.Domain, fn func()) { fn() }

// NewSignal implements runtime.Runtime.
func (e *Engine) NewSignal() runtime.Signal { return NewSignal(e) }

// NewGroup implements runtime.Runtime.
func (e *Engine) NewGroup() runtime.Group { return NewGroup(e) }

// NewResource implements runtime.Runtime.
func (e *Engine) NewResource(name string, capacity int) runtime.Resource {
	return NewResource(e, name, capacity)
}

// NewPipe implements runtime.Runtime.
func (e *Engine) NewPipe(name string, rate float64) runtime.Pipe {
	return NewPipe(e, name, rate)
}

// Run drives the event loop until the queue is empty or the clock passes
// until (use a huge value to run to completion). It returns the final
// virtual time.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.running, e.until = true, until
	// Deferred so both still happen when a process panic passes through.
	defer func() {
		e.running = false
		e.finalizeAccounting()
	}()
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > until {
			// Leave it queued so a later Run can continue.
			break
		}
		ev := e.queue.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fn()
	}
	return e.now
}

// finalizeAccounting folds the interval since each resource's last state
// change into its busy-time integral, so utilization accounting is
// complete through e.now whenever the event loop is not running.
func (e *Engine) finalizeAccounting() {
	for _, r := range e.resources {
		r.Account(e.now)
	}
}

// RunAll drives the event loop until no events remain.
func (e *Engine) RunAll() Time { return e.Run(Time(1<<62 - 1)) }

// Stop halts the event loop after the current event completes. Blocked
// processes stay parked until Shutdown reaps them, so callers ending a
// simulation for good should follow Stop (or the final Run) with Shutdown
// to avoid leaking their goroutines.
func (e *Engine) Stop() { e.stopped = true }

// errProcKilled unwinds a process goroutine that Shutdown is reaping.
var errProcKilled = new(int)

// Shutdown stops the engine and reaps every live process so no coroutine
// outlives the simulation: blocked processes are woken with a kill
// flag that unwinds their stacks, and spawned-but-never-started
// processes are discarded. It must be called from outside the event loop
// (never from a simulation process) and is the intended way to discard an
// engine — especially when many engines run back to back, where parked
// coroutines would otherwise accumulate. It returns the number of
// processes reaped; a well-formed, fully drained simulation returns 0.
func (e *Engine) Shutdown() int {
	if e.running {
		panic("sim: Engine.Shutdown called from inside Run")
	}
	e.stopped = true
	reaped := 0
	for len(e.live) > 0 {
		for p := range e.live {
			reaped++
			if !p.started {
				// Its coroutine was never created; just unregister.
				p.done = true
				e.procs--
				delete(e.live, p)
				continue
			}
			// The process is parked in Proc.block. Wake it with the kill
			// flag set; block panics with errProcKilled and the
			// coroutine's deferred handler swallows it. If a deferred
			// function blocks again, the process stays live and is
			// killed again on the next pass.
			p.killed = true
			p.wake()
			break // e.live changed; restart the iteration
		}
	}
	return reaped
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.queue) }

// LiveProcs reports the number of processes that have been spawned and not
// yet finished. After RunAll on a well-formed simulation this is the number
// of processes blocked forever (normally zero).
func (e *Engine) LiveProcs() int { return e.procs }

// LeakCheck returns nil when no processes are live, and otherwise an
// error naming the leaked processes. Call it after the simulation drains
// (and before Shutdown, which reaps the leaks it reports) to assert that
// no process was abandoned mid-blocking — the check harnesses and the
// bench worker pool use it so runs cannot mask leaks.
func (e *Engine) LeakCheck() error {
	if e.procs == 0 {
		return nil
	}
	names := make([]string, 0, len(e.live))
	for p := range e.live {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return fmt.Errorf("sim: %d leaked process(es): %s", e.procs, strings.Join(names, ", "))
}

// Proc is a simulation process: a coroutine that alternates control with
// the engine. All Proc methods must be called from the process itself.
type Proc struct {
	eng  *Engine
	name string
	// wake continues the parked process from engine context (inside an
	// event) and returns when it blocks again or finishes. It is built
	// once, at start, so scheduling it allocates nothing.
	wake func()
	// yield parks the process and switches back to whoever called wake.
	yield   func(struct{}) bool
	started bool
	done    bool
	killed  bool
}

// Name returns the process name given to Engine.Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine that owns this process.
func (p *Proc) Engine() *Engine { return p.eng }

// Runtime implements runtime.Task.
func (p *Proc) Runtime() runtime.Runtime { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// block yields control to the engine and waits until some event calls
// p.wake.
func (p *Proc) block() {
	p.yield(struct{}{})
	if p.killed {
		panic(errProcKilled)
	}
}

// MayPark, Park and Wake implement runtime.Parker, the kernel under the
// shared Signal, Group and Pipe. Wake is an event like any other, so
// wakes run in the order they were made and after the waker yields.
func (p *Proc) MayPark()         {}
func (p *Proc) Park(sync.Locker) { p.block() }
func (p *Proc) Wake()            { p.eng.Schedule(0, p.wake) }

// Sleep suspends the process for virtual duration d. A d <= 0 still
// yields, so equal-time events interleave fairly.
func (p *Proc) Sleep(d Duration) {
	e, at := p.eng, p.eng.now+Time(max(d, 0))
	// When nothing queued is due at or before the wake (an equal-time
	// event has a lower seq and goes first), the wake is inside the
	// running Run's bound and the loop was not stopped, this wake is the
	// event Run would pop next: take its (time, seq) slot in place.
	if !e.stopped && at <= e.until && (len(e.queue) == 0 || e.queue[0].at > at) {
		e.seq++
		e.now = at
		return
	}
	e.Schedule(d, p.wake)
	p.block()
}

// Yield gives other ready events a chance to run at the current time.
func (p *Proc) Yield() { p.Sleep(0) }

// Blocking implements runtime.Task. The simulator has no real I/O to
// overlap, so fn runs inline; it must not touch simulation state.
func (p *Proc) Blocking(fn func()) { fn() }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
