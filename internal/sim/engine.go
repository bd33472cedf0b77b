// Package sim is a deterministic discrete-event simulation kernel.
//
// It provides a virtual clock, coroutine-style processes, FIFO resource
// servers with utilization accounting, bandwidth pipes, and condition
// signals. The Cudele cluster (clients, metadata servers, object storage
// daemons, monitor) is modeled as sim processes that execute the real
// metadata code paths while charging virtual time to simulated devices.
//
// Only one process runs at a time: each runs on an iter.Pull coroutine
// that the event loop switches into and that switches back when it
// blocks, so simulations are fully deterministic for a given seed and
// schedule. A coroutine whose process returned runs the next one spawned.
package sim

import (
	"context"
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

	live    map[*Proc]struct{} // live processes, for leak detection
	stopped bool
	// idle holds the workers whose process returned, to run the next
	// spawn; Run stops them all when it returns.
	idle  []*worker
	stats Stats

	// tracer is the span recorder every layer records into; nil (the
	// default) disables tracing with zero overhead. It lives on the
	// engine because the engine is the one object all simulated
	// components already share.
	tracer *trace.Recorder

	// resources registers every Resource (and Pipe) created on this
	// engine so Run can finalize their busy-time integrals when the
	// event loop stops — without it, accounting is only updated on
	// state changes and a resource still held (or long idle) at the end
	// of a run reports a stale busyArea to raw snapshot readers.
	resources []*Resource
}

// Stats counts the kernel's own work since NewEngine. One process runs
// at a time, so each count is a plain add on the path it counts.
type Stats struct {
	Events        uint64 // events Run popped
	Tied          uint64 // popped events due at the clock's current time
	SleepsInline  uint64 // Sleeps that advanced the clock in place, with no switch
	SleepsBlocked uint64 // Sleeps that queued a wake and switched out
	Spawned       uint64 // processes spawned by Go
	Coroutines    uint64 // iter.Pull coroutines made to run them
}

// Stats returns the kernel's counts so far.
func (e *Engine) Stats() Stats { return e.stats }

// FillMetrics exports the kernel's counts. It reads counters only, so a
// run with metrics on keeps the schedule of one without.
func (e *Engine) FillMetrics(reg *trace.Registry) {
	s := e.Stats()
	reg.Counter("cudele_sim_events_total", "Events the simulator's event loop popped.", float64(s.Events))
	reg.Counter("cudele_sim_tied_events_total", "Popped events due at the current virtual time, which advanced no clock.", float64(s.Tied))
	reg.Counter("cudele_sim_sleeps_inline_total", "Sleeps that advanced the virtual clock in place, with no coroutine switch.", float64(s.SleepsInline))
	reg.Counter("cudele_sim_sleeps_blocked_total", "Sleeps that queued a wake and switched out of the process.", float64(s.SleepsBlocked))
	reg.Counter("cudele_sim_procs_total", "Simulated processes spawned.", float64(s.Spawned))
	reg.Counter("cudele_sim_coroutines_total", "Coroutines made to run the simulated processes.", float64(s.Coroutines))
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

// Exclusive implements runtime.Runtime. The simulator serializes
// everything through the event loop, so fn runs inline: a process
// already has every domain to itself, and a caller outside any process
// may only call from outside the loop, since it cannot safely
// interleave with a running simulation.
func (e *Engine) Exclusive(t runtime.Task, fn func()) {
	if t == nil && e.running {
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
// next reaches the current virtual time in its event loop, on an idle
// worker if one is left from a process that returned, else on a new one.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	e.live[p] = struct{}{}
	e.stats.Spawned++
	e.Schedule(0, func() {
		var w *worker
		if n := len(e.idle); n > 0 {
			w, e.idle = e.idle[n-1], e.idle[:n-1]
		} else {
			w = e.newWorker()
		}
		w.proc = p
		p.started = true
		p.wake = w.wake
		p.wake()
	})
	return p
}

// worker is one iter.Pull coroutine that runs processes one after
// another: a process that returns hands its coroutine back to the engine's
// idle list, so a simulation makes one coroutine per process it runs at
// once, not one per process it spawns. A process that panics, calls
// runtime.Goexit or is killed by Shutdown ends its worker's coroutine.
type worker struct {
	proc *Proc  // the process it runs, or ran last while idle
	wake func() // continues the coroutine; built once per worker
	stop func()
}

func (e *Engine) newWorker() *worker {
	e.stats.Coroutines++
	w := &worker{}
	next, stop := iter.Pull(func(yield func(struct{}) bool) {
		for {
			p := w.proc
			p.yield = yield
			if !e.runProc(p) {
				return
			}
			e.idle = append(e.idle, w)
			if !yield(struct{}{}) {
				return // stopped while idle
			}
		}
	})
	w.wake = func() { next() }
	w.stop = stop
	return w
}

// runProc runs p's function on the calling worker and reports whether
// the worker may run another process: false when Shutdown killed p.
func (e *Engine) runProc(p *Proc) bool {
	if l := obs.ProfLabels(); l != nil {
		obs.Switch(l.Proc(p.name))
	}
	defer func() {
		p.done = true
		delete(e.live, p)
		// iter.Pull re-raises this in whoever called next, so a
		// process panic surfaces in Run's caller, naming the process.
		if r := recover(); r != nil && r != errProcKilled {
			panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return !p.killed
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
func (d *domain) NewGroup() runtime.Group { return runtime.NewGroup(runtime.NoLock{}, d) }
func (d *domain) Rand() *rand.Rand        { return d.rng }
func (d *domain) Spawn(name string, fn func(t runtime.Task)) {
	(*Engine)(d).Spawn(name, fn)
}

// NewDomain implements runtime.Runtime.
func (e *Engine) NewDomain(string) runtime.Domain { return (*domain)(e) }

// NewSignal implements runtime.Runtime.
func (e *Engine) NewSignal() runtime.Signal { return runtime.NewSignal(runtime.NoLock{}) }

// NewResource implements runtime.Runtime.
func (e *Engine) NewResource(name string, capacity int) runtime.Resource {
	return NewResource(e, name, capacity)
}

// NewPipe implements runtime.Runtime.
func (e *Engine) NewPipe(name string, rate float64) *runtime.Pipe {
	return runtime.NewPipe(NewResource(e, name, 1), name, rate)
}

// Run drives the event loop until the queue is empty or the clock passes
// until (use a huge value to run to completion). It returns the final
// virtual time.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.running, e.until = true, until
	// With the label plane on, the loop's own samples are the kernel's;
	// each process switches to its own label when it starts.
	l := obs.ProfLabels()
	if l != nil {
		obs.Switch(l.Proc("sim.kernel"))
	}
	// Deferred so all of it still happens when a process panic passes
	// through.
	defer func() {
		e.running = false
		for _, w := range e.idle {
			w.stop()
		}
		clear(e.idle)
		e.idle = e.idle[:0]
		e.finalizeAccounting()
		if l != nil {
			obs.Switch(context.Background())
		}
	}()
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > until {
			// Leave it queued so a later Run can continue.
			break
		}
		ev := e.queue.pop()
		e.stats.Events++
		if ev.at > e.now {
			e.now = ev.at
		} else {
			e.stats.Tied++
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
// processes that were live when reaping began, each counted once however
// many kills it takes; a well-formed, fully drained simulation returns 0.
func (e *Engine) Shutdown() int {
	if e.running {
		panic("sim: Engine.Shutdown called from inside Run")
	}
	e.stopped = true
	reaped := len(e.live)
	for len(e.live) > 0 {
		for p := range e.live {
			if !p.started {
				// Its coroutine was never created; just unregister.
				p.done = true
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

// LeakCheck returns nil when no processes are live, and otherwise an
// error naming the leaked processes. Call it after the simulation drains
// (and before Shutdown, which reaps the leaks it reports) to assert that
// no process was abandoned mid-blocking — the check harnesses and the
// bench worker pool use it so runs cannot mask leaks.
func (e *Engine) LeakCheck() error {
	if len(e.live) == 0 {
		return nil
	}
	names := make([]string, 0, len(e.live))
	for p := range e.live {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return fmt.Errorf("sim: %d leaked process(es): %s", len(e.live), strings.Join(names, ", "))
}

// Proc is a simulation process: a coroutine that alternates control with
// the engine. All Proc methods must be called from the process itself.
type Proc struct {
	eng  *Engine
	name string
	fn   func(p *Proc) // until it starts
	// wake continues the parked process from engine context (inside an
	// event) and returns when it blocks again or finishes. It is its
	// worker's, built once per coroutine, so scheduling it allocates
	// nothing; a process is woken once per park, so no wake meant for it
	// reaches the worker's next process.
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
		e.stats.SleepsInline++
		return
	}
	e.stats.SleepsBlocked++
	e.Schedule(d, p.wake)
	p.block()
}

// Blocking implements runtime.Task. The simulator has no real I/O to
// overlap, so fn runs inline; it must not touch simulation state.
func (p *Proc) Blocking(fn func()) { fn() }
