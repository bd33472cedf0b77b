package realrt

import (
	"os"
	"os/exec"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cudele/internal/runtime"
)

// The wait under every signal, group, pipe and resource is Task.Park:
// counted blocked, then a poll of pollWindow, then a blocking receive.
// These tests hold the two-phase wait to what the one-phase wait promised,
// by counts and orderings; which phase a given wakeup finds the task in is
// the scheduler's business, so each test logs the split and asserts
// nothing about it.

// spin waits, without blocking, until cond holds.
func spin(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); goruntime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// spyLock is a primitive's lock that reports when Park lets go of it.
type spyLock struct {
	sync.Mutex
	unlocked func()
}

func (l *spyLock) Unlock() {
	if l.unlocked != nil {
		l.unlocked()
	}
	l.Mutex.Unlock()
}

// TestParkCountsBlockedBeforeWaiting: when Park releases the primitive's
// lock — before either phase of the wait — the task is already counted,
// so RunAll quiesces on a task that is still polling exactly as on one
// that blocks, and a Wake at any later point finds the mark to clear.
func TestParkCountsBlockedBeforeWaiting(t *testing.T) {
	e := New(1)
	var tt *Task
	var atUnlock, blockedAtUnlock atomic.Int64
	var unlocked, woken atomic.Bool
	e.Spawn("waiter", func(p runtime.Task) {
		tt = task(p)
		l := &spyLock{}
		l.unlocked = func() {
			atUnlock.Store(e.nblocked.Load())
			blockedAtUnlock.Store(int64(e.parksBlocked.Load()))
			unlocked.Store(true)
		}
		l.Lock()
		tt.Park(l)
		l.unlocked = nil
		l.Unlock()
		woken.Store(true)
	})
	e.RunAll() // returns with the waiter parked, in whichever phase
	spin(t, "Park has released the primitive's lock", unlocked.Load)
	if woken.Load() || atUnlock.Load() != 1 || blockedAtUnlock.Load() != 0 {
		t.Fatalf("at Park's unlock: blocked count %d, fell through %d, returned %v; want 1, 0, false",
			atUnlock.Load(), blockedAtUnlock.Load(), woken.Load())
	}
	if err := e.LeakCheck(); err == nil {
		t.Fatal("LeakCheck = nil with a parked task")
	}
	tt.Wake()
	e.RunAll()
	if !woken.Load() || e.nblocked.Load() != 0 || e.parks.Load() != 1 {
		t.Fatalf("after Wake: returned %v, blocked count %d, parks %d; want true, 0, 1",
			woken.Load(), e.nblocked.Load(), e.parks.Load())
	}
	if n := e.Shutdown(); n != 0 {
		t.Fatalf("shutdown reaped %d tasks", n)
	}
}

// TestQuiescenceCountsAcrossWaitPhases drives the accounting the way the
// protocol does — tasks that wake each other in a ring, each parking right
// after it wakes the next — and checks that RunAll returns only at the two
// true quiescent points: every task parked, and every task gone.
func TestQuiescenceCountsAcrossWaitPhases(t *testing.T) {
	const tasks, laps = 4, 300
	e := New(1)
	sigs := make([][]runtime.Signal, laps+1)
	for i := range sigs {
		sigs[i] = make([]runtime.Signal, tasks)
		for k := range sigs[i] {
			sigs[i][k] = e.NewSignal()
		}
	}
	var steps atomic.Int64
	for k := 0; k < tasks; k++ {
		dom := e.newDomain("d")
		dom.Spawn("ring", func(p runtime.Task) {
			for lap := 0; lap < laps; lap++ {
				sigs[lap][k].Wait(p)
				steps.Add(1)
				if k+1 < tasks {
					sigs[lap][k+1].Fire(nil)
				} else {
					sigs[lap+1][0].Fire(nil)
				}
			}
		})
	}
	e.RunAll()
	if got := steps.Load(); got != 0 || e.nblocked.Load() != tasks {
		t.Fatalf("first quiescence: %d steps taken, %d tasks counted blocked; want 0 and %d", got, e.nblocked.Load(), tasks)
	}
	sigs[0][0].Fire(nil)
	e.RunAll()
	if got := steps.Load(); got != tasks*laps {
		t.Fatalf("RunAll returned after %d of %d steps", got, tasks*laps)
	}
	if err := e.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	// A signal fired before its waiter arrives parks nobody.
	if parks, blocked := e.parks.Load(), e.parksBlocked.Load(); parks < tasks || parks > tasks*laps || blocked > parks {
		t.Fatalf("%d parks, %d fell through; want %d to %d parks and no more than that blocked", parks, blocked, tasks, tasks*laps)
	} else {
		t.Logf("%d parks, %d fell through to the scheduler", parks, blocked)
	}
	e.Shutdown()
}

// TestShutdownReapsPollingPark kills tasks the moment they are counted
// blocked, two domains deep — most of them mid-poll — and checks every
// round reaps exactly that task and leaves every lock free.
func TestShutdownReapsPollingPark(t *testing.T) {
	midPoll := 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		e := New(1)
		a, b := e.newDomain("a"), e.newDomain("b")
		never := e.NewSignal()
		e.Spawn("parked", func(p runtime.Task) {
			a.Enter(p)
			defer a.Leave(p)
			b.Enter(p)
			defer b.Leave(p)
			never.Wait(p)
			t.Error("wait returned")
		})
		spin(t, "the task is counted blocked", func() bool { return e.nblocked.Load() == 1 })
		if e.parksBlocked.Load() == 0 {
			midPoll++
		}
		if n := e.Shutdown(); n != 1 {
			t.Fatalf("round %d: shutdown reaped %d tasks, want 1", i, n)
		}
		if err := e.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		if n := e.nblocked.Load(); n != 0 {
			t.Fatalf("round %d: %d tasks still counted blocked after Shutdown", i, n)
		}
		assertAllFree(t, e)
	}
	t.Logf("%d of %d kills found the task polling", midPoll, rounds)
}

// TestDuplicateWakeLeavesNoToken: the second of two Wakes for one park
// finds the task no longer marked and sends nothing, whether the first
// found it polling or blocked, so the task's next Park waits for a Wake
// of its own.
func TestDuplicateWakeLeavesNoToken(t *testing.T) {
	for _, settle := range []time.Duration{0, 2 * time.Millisecond} {
		e := New(1)
		var tt *Task
		var l sync.Mutex // the primitive's lock: Park returns holding it
		var stage atomic.Int64
		e.Spawn("waiter", func(p runtime.Task) {
			tt = task(p)
			l.Lock()
			for i := 0; i < 2; i++ {
				tt.Park(&l)
				stage.Add(1)
			}
			l.Unlock()
		})
		e.RunAll()
		time.Sleep(settle) // 0: most likely polling; 2 ms: certainly blocked
		l.Lock()           // the task cannot leave its first park between the two
		tt.Wake()
		tt.Wake()
		l.Unlock()
		spin(t, "the task has parked a second time", func() bool { return e.parks.Load() == 2 })
		e.RunAll()
		time.Sleep(2 * time.Millisecond) // a stray token would end the second park
		if stage.Load() != 1 || len(tt.resume) != 0 || e.nblocked.Load() != 1 {
			t.Fatalf("settle %v: after a duplicate Wake the task is at stage %d with %d token(s) and blocked count %d; want 1, 0, 1",
				settle, stage.Load(), len(tt.resume), e.nblocked.Load())
		}
		tt.Wake()
		e.RunAll()
		if stage.Load() != 2 {
			t.Fatalf("settle %v: the second park's own Wake left the task at stage %d", settle, stage.Load())
		}
		if n := e.Shutdown(); n != 0 {
			t.Fatalf("shutdown reaped %d tasks", n)
		}
	}
}

// TestParkWakeDoesNotAllocate: neither phase of the wait allocates, and
// neither does the wakeup.
func TestParkWakeDoesNotAllocate(t *testing.T) {
	e := New(1)
	var tt atomic.Pointer[Task]
	var done atomic.Bool
	var allocs float64
	e.Spawn("waiter", func(p runtime.Task) {
		me := task(p)
		var l sync.Mutex
		l.Lock()
		tt.Store(me)
		allocs = testing.AllocsPerRun(500, func() { me.Park(&l) })
		l.Unlock()
		done.Store(true)
	})
	for !done.Load() { // the waker: AllocsPerRun counts every goroutine's mallocs
		if w := tt.Load(); w != nil {
			w.Wake()
		}
		goruntime.Gosched()
	}
	e.RunAll()
	e.Shutdown()
	if allocs != 0 {
		t.Fatalf("a Park/Wake pair allocates %.1f objects, want 0", allocs)
	}
}

// TestSuiteOnOneP runs this package's tests again with GOMAXPROCS=1, where
// a parking task must not poll: the waker cannot run while it does, and
// every wait would last until the scheduler's 10 ms preemption. The bound
// on the wall time is loose — several times what the same tests take with
// every P — and a suite that stalls per park misses it by far more.
func TestSuiteOnOneP(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the package's tests")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip(err)
	}
	run := func(env ...string) time.Duration {
		cmd := exec.Command(exe, "-test.skip=^TestSuiteOnOneP$", "-test.count=1")
		cmd.Env = append(os.Environ(), env...)
		t0 := time.Now()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("suite with %v: %v\n%s", env, err, out)
		}
		return time.Since(t0)
	}
	every, one := run(), run("GOMAXPROCS=1")
	t.Logf("suite: %v with every P, %v with one", every, one)
	if limit := 5*every + 5*time.Second; one > limit {
		t.Fatalf("suite took %v with GOMAXPROCS=1, want under %v (%v with every P)", one, limit, every)
	}
}

// benchEngines runs fn against an engine whose parking tasks block at
// once (what every engine did before pollWindow, and what one does with a
// single P) and against one whose tasks poll first.
func benchEngines(b *testing.B, fn func(b *testing.B, e *Engine)) {
	if goruntime.GOMAXPROCS(0) < 2 {
		b.Skip("a hand-off between running tasks needs two Ps")
	}
	for _, polls := range []bool{false, true} {
		name := "block"
		if polls {
			name = "poll"
		}
		b.Run(name, func(b *testing.B) {
			e := New(1)
			e.polls = polls
			defer e.Shutdown()
			fn(b, e)
			b.ReportMetric(float64(e.parksBlocked.Load())/float64(max(e.parks.Load(), 1)), "blocked/park")
		})
	}
}

// BenchmarkHandOffParked times the hand-off pollWindow is sized by: a task
// parked on a capacity-1 resource is handed the unit by a task that keeps
// running — a client's RPC done with the rank's CPU, the client going on
// with its own work — so the wakee cannot inherit the waker's P the way it
// does when the waker parks next. One op is one Release-to-resumed
// interval, timed by the waker. block: the wakee is asleep in the
// scheduler when the unit arrives; poll: it is still inside its window.
func BenchmarkHandOffParked(b *testing.B) {
	benchEngines(b, func(b *testing.B, e *Engine) {
		cpu := e.NewResource("cpu", 1)
		var held, resumed atomic.Int64 // rounds the waker has begun, the wakee has finished
		var handOff time.Duration
		e.newDomain("waker").Spawn("waker", func(t runtime.Task) {
			for i := 0; i < b.N; i++ {
				cpu.Acquire(t) // round 0: free; later: behind the wakee, which lets go at once
				held.Add(1)
				for cpu.Snapshot().QueueLen == 0 {
				}
				if !e.polls { // let the wakee reach the scheduler
					for end := time.Now().Add(20 * time.Microsecond); time.Now().Before(end); {
					}
				}
				t0 := time.Now()
				cpu.Release()
				for resumed.Load() <= int64(i) {
				}
				handOff += time.Since(t0)
			}
		})
		e.newDomain("wakee").Spawn("wakee", func(t runtime.Task) {
			for i := 0; i < b.N; i++ {
				for held.Load() <= int64(i) {
				}
				cpu.Acquire(t)
				resumed.Add(1)
				cpu.Release()
			}
		})
		e.RunAll()
		b.ReportMetric(float64(handOff.Nanoseconds())/float64(b.N), "ns/handoff")
	})
}

// BenchmarkHandOffPingPong is the host benchmark's realrt.handoff_us
// probe: two tasks of one domain alternate over one-shot signals, so every
// waker parks right after it wakes. One op is one Fire-to-resumed hand-off.
func BenchmarkHandOffPingPong(b *testing.B) {
	benchEngines(b, func(b *testing.B, e *Engine) {
		rounds := b.N/2 + 1
		ping := make([]runtime.Signal, rounds)
		pong := make([]runtime.Signal, rounds)
		for i := range ping {
			ping[i], pong[i] = e.NewSignal(), e.NewSignal()
		}
		e.Spawn("a", func(t runtime.Task) {
			for i := range ping {
				ping[i].Fire(nil)
				pong[i].Wait(t)
			}
		})
		e.Spawn("b", func(t runtime.Task) {
			for i := range ping {
				ping[i].Wait(t)
				pong[i].Fire(nil)
			}
		})
		b.ResetTimer()
		e.RunAll()
	})
}
