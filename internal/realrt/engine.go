// Package realrt is the real execution backend: tasks are goroutines,
// the clock is wall time, and sleeps and bandwidth charges take actual
// wall-clock time. The protocol stack (client, mds, monitor, rados,
// transport) runs on it unchanged through the interfaces in
// internal/runtime.
//
// # Lock domains
//
// The protocol code was written for the simulator's cooperative model:
// one task executes at a time and every shared structure (namespace
// stores, journals, session maps, merge scheduler state) is mutated
// without locks, relying on yield points for atomicity. The real backend
// keeps that contract per daemon instead of per cluster. Every daemon —
// each metadata rank, the monitor, the object store, each client — owns
// a Domain, a lock that a task holds while it executes inside the
// daemon; tasks spawned from outside any daemon run in the engine's
// root domain, so harness code between client calls excludes other
// harness code exactly as it always did. Tasks in different domains run
// truly in parallel.
//
// A task holds exactly one domain lock at a time. Enter releases the
// domain the task is in before taking the next, Leave goes back the same
// way, and Sleep, parking on a signal or resource, and Task.Blocking
// release whichever domain is current and retake it afterwards. With one
// lock per task there is no lock order to violate, and every
// cross-daemon call is a yield point: the state of the domain a task
// left may have changed when it returns — as it may across any Sleep in
// the simulator. Exclusive, the one operation that needs several
// domains at once, takes them all in creation order.
//
// Signals, groups, resources and pipes are fired and waited across
// domains, so each carries its own small lock; no task waits for a
// domain lock while holding one of those.
//
// # Waiting
//
// Every wait on one of those objects is Task.Park, and it goes: counted
// blocked, poll, block. The task marks itself parked and joins the
// engine's blocked count while it still holds the object's lock, so
// whoever dequeues it finds the mark; then, with that lock and its domain
// released, it yields its P once, watches its wakeup token for pollWindow,
// and only then blocks on the token in the scheduler. RunAll's quiescence
// and Shutdown's reaping see one state, parked, whichever phase the task
// is in; Park and Wake take no engine-wide lock.
//
// The poll exists because a release hands its unit to the head waiter
// whether or not that task is awake to use it. A rank's CPU is held across
// a service-time Sleep, which gives up the rank's domain for an instant; a
// second client walks in, finds the CPU busy and parks. If it blocks at
// once, the CPU is handed to a goroutine that needs a scheduler wake-up
// before it runs, the first client is back with its next request before
// that has happened, finds the CPU owned, and blocks too: from then on
// every request is served by a task that was asleep when it got the unit —
// a lock convoy, one wake-up per request, which no request ends. A waiter
// still polling when the unit arrives runs at once on its own P, and the
// convoy does not sustain itself.
//
// Sleeps are real: Duration values that the simulator charges as
// virtual time become wall-clock sleeps here. That is load-bearing
// beyond fidelity — protocol loops poll with short sleeps (journal
// flush waits, merge window retries), and a no-op sleep would spin
// forever while holding the domain. A sleep too short for a timer to
// honour (spinBelow) is still a sleep: the task watches the clock with
// its domain released.
package realrt

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cudele/internal/obs"
	"cudele/internal/runtime"
	"cudele/internal/trace"
)

// errTaskKilled unwinds a task goroutine that Shutdown is reaping.
var errTaskKilled = new(int)

// Engine is the real backend's runtime: a wall clock, the lock domains,
// and a registry of live tasks.
type Engine struct {
	// state guards the task registry and the domain list, and is what
	// cond waits on. It is a leaf: nothing takes a domain lock while
	// holding it. Park and Wake do not take it: the quiescence counts
	// below are atomic, and a park touches state only to broadcast that
	// the last running task has blocked.
	state sync.Mutex
	cond  *sync.Cond

	start  time.Time
	rng    *rand.Rand
	tracer *trace.Recorder

	// root is the domain of tasks spawned through Engine.Spawn.
	root *Domain
	// domains lists every domain in creation order, the order Exclusive
	// locks in.
	domains []*Domain

	live map[*Task]struct{}
	// polls is whether a parking task watches for its wakeup before it
	// blocks: with one P the waker cannot run while it does.
	polls bool

	nlive    atomic.Int64 // len(live), for Park to read without state
	nblocked atomic.Int64 // tasks parked on a signal/resource with no wakeup in flight
	// parks counts Park calls and parksBlocked those whose wakeup did not
	// come within pollWindow, so the task fell through to the scheduler.
	parks        atomic.Uint64
	parksBlocked atomic.Uint64

	net *loopback // optional loopback-TCP round tripper, nil when off
}

// lockedSource makes the engine's random source safe to draw from in
// several domains at once.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// New returns an engine whose clock starts now and whose random source
// is seeded with seed. Real runs are not deterministic — goroutine
// wakeup order depends on the scheduler and wall time — but a seeded
// source keeps workload shapes (jitter draws, service-time draws)
// reproducible in distribution.
func New(seed int64) *Engine {
	e := &Engine{
		start: time.Now(),
		rng:   rand.New(&lockedSource{src: rand.NewSource(seed).(rand.Source64)}),
		live:  make(map[*Task]struct{}),
		polls: goruntime.GOMAXPROCS(0) > 1,
	}
	e.cond = sync.NewCond(&e.state)
	e.root = e.newDomain("root")
	return e
}

// Kind implements runtime.Runtime.
func (e *Engine) Kind() runtime.Kind { return runtime.RealKind }

// Now returns wall-clock nanoseconds since the engine was created.
func (e *Engine) Now() runtime.Time { return runtime.Time(time.Since(e.start)) }

// Rand returns the engine's random source, for harness code. Its source
// is locked, so tasks in different domains may draw concurrently; a
// daemon draws from its Domain.Rand, which takes no lock.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Tracer returns the span recorder; nil means tracing is off.
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// SetTracer installs a span recorder. Install before spawning tasks;
// the recorder itself is safe for concurrent use.
func (e *Engine) SetTracer(r *trace.Recorder) { e.tracer = r }

// Domain is one lock domain of the real backend.
type Domain struct {
	eng  *Engine
	name string // for diagnostics
	id   int    // index in eng.domains
	mu   sync.Mutex
	// rng is the domain's own random source, drawn only by the task
	// holding mu, so it needs no lock of its own.
	rng *rand.Rand
}

func (e *Engine) newDomain(name string) *Domain {
	d := &Domain{eng: e, name: name, rng: rand.New(rand.NewSource(e.rng.Int63()))}
	e.state.Lock()
	d.id = len(e.domains)
	e.domains = append(e.domains, d)
	e.state.Unlock()
	return d
}

// NewDomain implements runtime.Runtime.
func (e *Engine) NewDomain(name string) runtime.Domain { return e.newDomain(name) }

// Enter implements runtime.Domain: the task gives up the domain it is
// in and takes d, unless it is in d already.
func (d *Domain) Enter(t runtime.Task) {
	if t == nil {
		return
	}
	tt := task(t)
	tt.mayYield("Enter")
	cur := tt.cur()
	tt.doms = append(tt.doms, d)
	if cur != d {
		cur.mu.Unlock()
		d.mu.Lock()
	}
}

// Leave implements runtime.Domain: the inverse of the matching Enter.
func (d *Domain) Leave(t runtime.Task) {
	if t == nil {
		return
	}
	tt := task(t)
	n := len(tt.doms)
	if n < 2 || tt.doms[n-1] != d {
		panic(fmt.Sprintf("realrt: %s leaves domain %q without a matching Enter", tt.name, d.name))
	}
	tt.doms = tt.doms[:n-1]
	if prev := tt.doms[n-2]; prev != d {
		d.mu.Unlock()
		prev.mu.Lock()
	}
}

// Spawn implements runtime.Domain: fn runs as a goroutine that starts
// inside d.
func (d *Domain) Spawn(name string, fn func(t runtime.Task)) {
	e := d.eng
	t := &Task{eng: e, name: name, resume: make(chan struct{}, 1)}
	t.stack[0] = d
	t.doms = t.stack[:1]
	e.state.Lock()
	e.nlive.Add(1)
	e.live[t] = struct{}{}
	e.state.Unlock()
	go func() {
		if l := obs.ProfLabels(); l != nil {
			obs.Switch(l.Proc(name))
		}
		d.mu.Lock()
		defer func() {
			r := recover()
			// A killed task unwinds from wherever it was parked, so the
			// domain to release is its current one, not necessarily d.
			t.cur().mu.Unlock()
			e.state.Lock()
			e.nlive.Add(-1)
			delete(e.live, t)
			e.cond.Broadcast()
			e.state.Unlock()
			if r != nil && r != errTaskKilled {
				panic(r)
			}
		}()
		if t.killed.Load() {
			return
		}
		fn(t)
	}()
}

// NewGroup implements runtime.Domain.
func (d *Domain) NewGroup() runtime.Group { return runtime.NewGroup(new(sync.Mutex), d) }

// Rand implements runtime.Domain: the domain's own source, seeded from the
// engine's when the domain was created.
func (d *Domain) Rand() *rand.Rand { return d.rng }

// Spawn implements runtime.Runtime: fn runs as a goroutine in the root
// domain.
func (e *Engine) Spawn(name string, fn func(t runtime.Task)) { e.root.Spawn(name, fn) }

// Exclusive implements runtime.Runtime: fn runs holding every domain
// lock, so no other task executes protocol code concurrently. A task
// gives up its own domain first and takes it back afterwards; a nil t is
// an outside caller (an admin scrape goroutine) that holds none.
func (e *Engine) Exclusive(t runtime.Task, fn func()) {
	if t != nil {
		tt := task(t)
		tt.mayYield("Exclusive")
		cur := tt.cur()
		cur.mu.Unlock()
		tt.exclusive = true
		defer func() { tt.exclusive = false; cur.mu.Lock() }()
	}
	var held []*Domain
	for {
		// Domains created while earlier ones were being locked come
		// later in creation order; keep going until none are left.
		e.state.Lock()
		more := e.domains[len(held):]
		e.state.Unlock()
		if len(more) == 0 {
			break
		}
		for _, d := range more {
			d.mu.Lock()
		}
		held = append(held, more...)
	}
	defer func() {
		for _, d := range held {
			d.mu.Unlock()
		}
	}()
	fn()
}

// Blocking runs fn with the root domain released. It serves harness
// tasks in the root domain that have no task handle at hand; code that
// has one — all protocol code — calls Task.Blocking, which releases
// whichever domain the task is in.
func (e *Engine) Blocking(fn func()) {
	e.root.mu.Unlock()
	defer e.root.mu.Lock()
	fn()
}

// NewSignal implements runtime.Runtime.
func (e *Engine) NewSignal() runtime.Signal { return runtime.NewSignal(new(sync.Mutex)) }

// NewGroup implements runtime.Runtime.
func (e *Engine) NewGroup() runtime.Group { return e.root.NewGroup() }

// NewResource implements runtime.Runtime.
func (e *Engine) NewResource(name string, capacity int) runtime.Resource {
	return newResource(e, name, capacity)
}

// NewPipe implements runtime.Runtime.
func (e *Engine) NewPipe(name string, rate float64) runtime.Pipe {
	return runtime.NewPipe(newResource(e, name, 1), rate)
}

// RunAll blocks until every task has finished or the remaining tasks
// are all parked on signals/resources with nothing left to wake them
// (the real-backend analogue of the simulator draining its event queue
// with processes still blocked). Tasks that are sleeping or doing
// Blocking I/O count as runnable — they will make progress on their
// own. It returns the wall time since the engine started.
func (e *Engine) RunAll() runtime.Time {
	e.state.Lock()
	for len(e.live) > 0 && e.nblocked.Load() < int64(len(e.live)) {
		e.cond.Wait()
	}
	e.state.Unlock()
	return e.Now()
}

// LeakCheck returns nil when no tasks are live, and otherwise an error
// naming the leaked tasks.
func (e *Engine) LeakCheck() error {
	e.state.Lock()
	defer e.state.Unlock()
	if len(e.live) == 0 {
		return nil
	}
	names := make([]string, 0, len(e.live))
	for t := range e.live {
		names = append(names, t.name)
	}
	sort.Strings(names)
	return fmt.Errorf("realrt: %d leaked task(s): %s", len(names), strings.Join(names, ", "))
}

// Shutdown reaps every live task: blocked and sleeping tasks are woken
// with a kill flag that unwinds their stacks, and the call blocks until
// all task goroutines have exited, each releasing the domain it was in.
// It also closes the loopback-TCP endpoint if one was enabled. It
// returns the number of tasks that were live when reaping began; a
// fully drained run returns 0.
func (e *Engine) Shutdown() int {
	e.state.Lock()
	reaped := len(e.live)
	for len(e.live) > 0 {
		targets := make([]*Task, 0, len(e.live))
		for t := range e.live {
			targets = append(targets, t)
		}
		e.state.Unlock()
		for _, t := range targets {
			// A parked task is uncounted and woken; a sleeping one is
			// not parked, and the token is what ends its sleep.
			t.killed.Store(true)
			t.Wake()
			t.token()
		}
		e.state.Lock()
		if len(e.live) == 0 {
			break
		}
		e.cond.Wait()
	}
	e.state.Unlock()
	if e.net != nil {
		e.net.close()
		e.net = nil
	}
	return reaped
}

// Task is one goroutine obeying the engine's domain discipline. All
// methods must be called from the task's own goroutine, which holds the
// lock of its current domain except while parked.
type Task struct {
	eng  *Engine
	name string
	// doms is the stack of domains the task has entered, innermost
	// last; the task holds the lock of the last one only. stack backs it
	// for the usual nesting depth.
	doms  []*Domain
	stack [8]*Domain
	// exclusive is set while the task runs an Exclusive body, which
	// holds every domain lock and therefore must not yield.
	exclusive bool
	// timer is reused by every Sleep of spinBelow or longer.
	timer *time.Timer
	// resume carries wakeups. Capacity 1: a park is sent one token, by
	// the Wake that found the task parked, and Shutdown's kill adds one
	// that a task consumes at most once before it unwinds.
	resume chan struct{}
	// parked is true while the task is blocked on a signal/resource.
	// Its waker clears it (and the engine's blocked count) before it
	// sends the token, so quiescence accounting never counts a task that
	// already has a wakeup in flight.
	parked atomic.Bool
	killed atomic.Bool
}

// Name returns the task name given to Spawn.
func (t *Task) Name() string { return t.name }

// Now returns wall-clock nanoseconds since the engine started.
func (t *Task) Now() runtime.Time { return t.eng.Now() }

// Runtime implements runtime.Task.
func (t *Task) Runtime() runtime.Runtime { return t.eng }

// cur returns the domain the task is in.
func (t *Task) cur() *Domain { return t.doms[len(t.doms)-1] }

// mayYield panics when the task is about to give up its domain inside an
// Exclusive body, which holds them all.
func (t *Task) mayYield(op string) {
	if t.exclusive {
		panic(fmt.Sprintf("realrt: %s calls %s inside Exclusive", t.name, op))
	}
}

// spinBelow is the shortest sleep worth a timer. Arming one, parking and
// being handed back to a thread costs about a microsecond whatever was
// asked for (the benchmark's realrt.sleep_min_us probe read 0.70 us for
// Sleep(1) through the timer), so anything shorter would oversleep by
// more than its length and pay a goroutine hand-off for it. Below this
// the task watches the clock instead.
const spinBelow = time.Microsecond

// Sleep suspends the task for wall duration d, releasing its domain: it
// returns no earlier than d after the call, other tasks may run in the
// domain meanwhile (so the domain's state may have changed on return),
// and a task Shutdown is reaping unwinds out of it. d <= 0 only yields.
// A sleep shorter than spinBelow spins on the monotonic clock with the
// domain released; a longer one parks on the task's timer. Neither
// allocates.
func (t *Task) Sleep(d runtime.Duration) {
	if t.killed.Load() {
		panic(errTaskKilled)
	}
	t.mayYield("Sleep")
	cur := t.cur()
	cur.mu.Unlock()
	switch {
	case d <= 0:
		// A yield: the unlock above lets a waiter take the domain.
	case d < spinBelow:
		// Now is a monotonic reading (time.Since of the engine's start).
		for end := t.eng.Now() + runtime.Time(d); t.eng.Now() < end; {
		}
	default:
		if t.timer == nil {
			t.timer = time.NewTimer(d)
		} else {
			// The previous sleep drained the channel, or was killed and
			// never returns here, so Reset needs no Stop-and-drain.
			t.timer.Reset(d)
		}
		select {
		case <-t.timer.C:
		case <-t.resume: // Shutdown kill
			t.timer.Stop()
		}
	}
	cur.mu.Lock()
	if t.killed.Load() {
		panic(errTaskKilled)
	}
}

// Blocking implements runtime.Task: fn runs with the task's domain
// released, so real I/O overlaps the domain's other tasks. fn must not
// touch protocol state.
func (t *Task) Blocking(fn func()) {
	t.mayYield("Blocking")
	cur := t.cur()
	cur.mu.Unlock()
	defer cur.mu.Lock()
	fn()
}

// String implements fmt.Stringer.
func (t *Task) String() string { return fmt.Sprintf("task(%s)", t.name) }

// MayPark is the check a task makes before it queues itself on a signal
// or resource: a task Shutdown is reaping unwinds instead. With Park and
// Wake it implements runtime.Parker, the kernel under the shared Signal,
// Group and Pipe and under Resource.
func (t *Task) MayPark() {
	if t.killed.Load() {
		panic(errTaskKilled)
	}
	t.mayYield("a wait")
}

// pollWindow is how long a parking task watches for its wakeup before it
// blocks in the scheduler (see "Waiting" in the package comment). It has
// to outlast the usual hold of what is waited for — an RPC's turn on a
// rank's CPU is a microsecond or two — and is otherwise as short as it can
// be: a poll whose wakeup is not coming burns a P for its length. What it
// saves is a wake-up through the scheduler. On the 2-vCPU sandbox, go1.24:
// BenchmarkHandOffParked, a hand-off to a parked task whose waker keeps
// running, reads 101-112 us when the wakee has blocked and 1.2-3.9 us when
// it is still polling; BenchmarkHandOffPingPong, where the waker parks next
// and a blocked wakee inherits its P, 0.37-0.65 us blocking and 0.45-1.07
// polling. The host benchmark's real_rpc_read by window (op_p50_us / K
// ops/s, 12 s runs; blocking at once 3.5-4.2 / 325-392): 0 (yield, look
// once, block) 1.32-1.47 / 453-483, 1 us 1.40-1.54 / 462-526, 2 us
// 1.47-1.49 / 511-531, 4 us 1.39-1.87 / 479-557, 8 us 1.35-1.78 /
// 432-533, 16 us 1.70-1.71 / 452-548. Before the yield in poll, 1 and 2 us
// were worse than blocking at once and the plateau began at 4 us
// (DESIGN.md, "The wait under every primitive", has both sweeps).
const pollWindow = 4 * time.Microsecond

// Park suspends the task until Wake, releasing its domain. The caller has
// queued the task on a signal or resource and holds l, that object's
// lock: the task is counted as blocked before l is released, so whoever
// later dequeues it finds it marked and its Wake keeps the quiescence
// accounting exact. A task parked with no registration a future Wake
// will find only RunAll's quiescence accounting and Shutdown can reach.
//
// The wait has two phases, both with l and the domain released and the
// task already counted: it polls resume for pollWindow, then blocks on
// it. RunAll and Shutdown cannot tell them apart.
func (t *Task) Park(l sync.Locker) {
	e := t.eng
	t.parked.Store(true) // before the count: a kill's Wake in between undoes both
	e.parks.Add(1)
	if e.nblocked.Add(1) >= e.nlive.Load() {
		// The last running task has blocked: RunAll quiesces. Taking
		// state puts the broadcast after a RunAll that read the old count
		// has begun to wait.
		e.state.Lock()
		e.cond.Broadcast()
		e.state.Unlock()
	}
	l.Unlock()
	cur := t.cur()
	cur.mu.Unlock()
	if !t.poll() {
		e.parksBlocked.Add(1)
		<-t.resume
	}
	cur.mu.Lock()
	if t.killed.Load() {
		// The kill's Wake may have come before the count above and left
		// only its token; settle the count before unwinding.
		if t.parked.CompareAndSwap(true, false) {
			e.nblocked.Add(-1)
		}
		panic(errTaskKilled)
	}
	l.Lock()
}

// poll takes the task's wakeup if it arrives within pollWindow. It yields
// first: a task this one has just woken sits in this P's run-next slot,
// where another P may take it only after microseconds, and it is the task
// most likely to send the wakeup.
func (t *Task) poll() bool {
	if !t.eng.polls {
		return false
	}
	goruntime.Gosched()
	for end := t.eng.Now() + runtime.Time(pollWindow); ; {
		select {
		case <-t.resume:
			return true
		default:
		}
		if t.eng.Now() >= end {
			return false
		}
	}
}

// Wake unparks a blocked task. Only the call that finds the task parked
// sends the token, so a duplicate leaves nothing behind for the task's
// next Park. Safe to call from any goroutine; it takes no lock.
func (t *Task) Wake() {
	if t.parked.CompareAndSwap(true, false) {
		t.eng.nblocked.Add(-1)
		t.token()
	}
}

// token puts a wakeup in resume unless one is waiting there.
func (t *Task) token() {
	select {
	case t.resume <- struct{}{}:
	default:
	}
}
