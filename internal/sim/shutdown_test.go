package sim

import (
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

// spawnOn calls spawn, which spawns n processes. Fresh, it calls it
// outside the loop, so they start at time 0 on coroutines of their own.
// Reused, n processes that return at time 1 come first, and a process
// calls spawn at time 2, so the n run on coroutines other processes ran
// on. It returns the check, for after the run, that the reused n made no
// coroutine.
func spawnOn(e *Engine, reused bool, n int, spawn func()) func(*testing.T) {
	if !reused {
		spawn()
		return func(*testing.T) {}
	}
	for i := 0; i < n; i++ {
		e.Go("warm", func(p *Proc) { p.Sleep(1) })
	}
	e.Go("spawner", func(p *Proc) {
		p.Sleep(2)
		spawn()
	})
	return func(t *testing.T) {
		t.Helper()
		if st := e.Stats(); st.Coroutines != st.Spawned-uint64(n) {
			t.Fatalf("%d coroutines for %d procs, want %d", st.Coroutines, st.Spawned, st.Spawned-uint64(n))
		}
	}
}

// freshAndReused runs test as two subtests, with reused false and true.
func freshAndReused(t *testing.T, test func(t *testing.T, reused bool)) {
	for _, reused := range []bool{false, true} {
		t.Run(map[bool]string{false: "fresh", true: "reused"}[reused], func(t *testing.T) { test(t, reused) })
	}
}

// TestShutdownReapsBlockedProcs is the leak regression for Engine.Stop:
// processes abandoned mid-block must be unwound by Shutdown so their
// goroutines exit instead of parking forever, on a reused coroutine as on
// a fresh one.
func TestShutdownReapsBlockedProcs(t *testing.T) {
	freshAndReused(t, func(t *testing.T, reused bool) {
		before := goruntime.NumGoroutine()
		e := NewEngine(1)
		unwound := 0
		reusedCheck := spawnOn(e, reused, 5, func() {
			for i := 0; i < 5; i++ {
				e.Go("sleeper", func(p *Proc) {
					defer func() { unwound++ }()
					p.Sleep(time.Hour)
				})
			}
		})
		e.Go("stopper", func(p *Proc) {
			p.Sleep(time.Millisecond)
			e.Stop()
		})
		e.RunAll()
		reusedCheck(t)
		if len(e.live) != 5 {
			t.Fatalf("live procs after Stop = %d, want 5", len(e.live))
		}
		if err := e.LeakCheck(); err == nil || !strings.Contains(err.Error(), "sleeper") {
			t.Fatalf("LeakCheck = %v, want error naming sleeper", err)
		}
		if got := e.Shutdown(); got != 5 {
			t.Fatalf("Shutdown reaped %d, want 5", got)
		}
		if unwound != 5 {
			t.Fatalf("unwound %d sleeper stacks, want 5", unwound)
		}
		if len(e.live) != 0 {
			t.Fatalf("live procs after Shutdown = %d", len(e.live))
		}
		if err := e.LeakCheck(); err != nil {
			t.Fatalf("LeakCheck after Shutdown: %v", err)
		}
		goroutinesBackTo(t, before)
	})
}

// TestShutdownNeverStartedProc covers processes spawned after the loop
// stopped: their goroutines were never created, so Shutdown only has to
// unregister them.
func TestShutdownNeverStartedProc(t *testing.T) {
	e := NewEngine(1)
	e.Go("stopper", func(p *Proc) { e.Stop() })
	e.RunAll()
	e.Go("never-started", func(p *Proc) { t.Error("ran after Stop") })
	if got := e.Shutdown(); got != 1 {
		t.Fatalf("Shutdown reaped %d, want 1", got)
	}
	if len(e.live) != 0 {
		t.Fatalf("live procs = %d", len(e.live))
	}
}

// TestShutdownKillsReblockingDefer: a deferred function that blocks again
// during the unwind is killed again rather than deadlocking Shutdown, and
// the process is counted once, not once per kill.
func TestShutdownKillsReblockingDefer(t *testing.T) {
	freshAndReused(t, func(t *testing.T, reused bool) {
		before := goruntime.NumGoroutine()
		e := NewEngine(1)
		reusedCheck := spawnOn(e, reused, 1, func() {
			e.Go("stubborn", func(p *Proc) {
				defer p.Sleep(time.Hour) // re-blocks during the unwind
				p.Sleep(time.Hour)
			})
		})
		e.Go("stopper", func(p *Proc) {
			p.Sleep(time.Millisecond)
			e.Stop()
		})
		e.RunAll()
		reusedCheck(t)
		if got := e.Shutdown(); got != 1 {
			t.Fatalf("Shutdown reaped %d, want 1", got)
		}
		if len(e.live) != 0 {
			t.Fatalf("live procs = %d", len(e.live))
		}
		goroutinesBackTo(t, before)
	})
}

func TestShutdownCleanSimulationIsNoop(t *testing.T) {
	e := NewEngine(1)
	e.Go("worker", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.RunAll()
	if got := e.Shutdown(); got != 0 {
		t.Fatalf("Shutdown reaped %d on a drained simulation", got)
	}
}

// TestShutdownResourceWaiter kills a process blocked deep in a resource
// queue, the common shape of a real leak.
func TestShutdownResourceWaiter(t *testing.T) {
	freshAndReused(t, func(t *testing.T, reused bool) {
		before := goruntime.NumGoroutine()
		e := NewEngine(1)
		r := NewResource(e, "cpu", 1)
		reusedCheck := spawnOn(e, reused, 2, func() {
			e.Go("holder", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(time.Hour) // never releases before the stop
			})
			e.Go("waiter", func(p *Proc) {
				p.Sleep(time.Millisecond)
				r.Acquire(p)
			})
		})
		e.Go("stopper", func(p *Proc) {
			p.Sleep(2 * time.Millisecond)
			e.Stop()
		})
		e.RunAll()
		reusedCheck(t)
		if got := e.Shutdown(); got != 2 {
			t.Fatalf("Shutdown reaped %d, want 2", got)
		}
		goroutinesBackTo(t, before)
	})
}

// goroutinesBackTo waits up to a second for the goroutine count to fall
// back to before: a coroutine that ended has returned, but its goroutine
// may not have exited yet.
func goroutinesBackTo(t *testing.T, before int) {
	t.Helper()
	for i := 0; goruntime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines, want %d", goruntime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkEngineSchedule measures the per-event cost of the hot
// Schedule/Run path. The value-based event queue should keep this at zero
// allocations per scheduled event (the seed implementation paid one heap
// allocation per Schedule through container/heap).
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fn := func() {}
	const batch = 1024
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			e.Schedule(Duration(j), fn)
		}
		e.RunAll()
	}
}

// TestScheduleAllocs pins the allocation regression directly: steady-state
// scheduling must not allocate per event.
func TestScheduleAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Warm up the queue's backing array.
	for i := 0; i < 256; i++ {
		e.Schedule(Duration(i), fn)
	}
	e.RunAll()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(Duration(i), fn)
		}
		e.RunAll()
	})
	if avg > 1 {
		t.Fatalf("Schedule+Run of 64 events allocates %.1f times, want <=1", avg)
	}
}

// BenchmarkResourceAcquireRelease measures an uncontended Acquire+Release
// from inside a process: the path every simulated CPU charge takes, and
// the one the queueing calls stay per backend for (DESIGN.md, "Execution
// backends").
func BenchmarkResourceAcquireRelease(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	e.Go("bench", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Acquire(p)
			r.Release()
		}
	})
	e.RunAll()
}
