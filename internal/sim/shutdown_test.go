package sim

import (
	"strings"
	"testing"
	"time"
)

// TestShutdownReapsBlockedProcs is the leak regression for Engine.Stop:
// processes abandoned mid-block must be unwound by Shutdown so their
// goroutines exit instead of parking forever.
func TestShutdownReapsBlockedProcs(t *testing.T) {
	e := NewEngine(1)
	unwound := 0
	for i := 0; i < 5; i++ {
		e.Go("sleeper", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(time.Hour)
		})
	}
	e.Go("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Stop()
	})
	e.RunAll()
	if e.LiveProcs() != 5 {
		t.Fatalf("live procs after Stop = %d, want 5", e.LiveProcs())
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
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after Shutdown = %d", e.LiveProcs())
	}
	if err := e.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck after Shutdown: %v", err)
	}
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
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
}

// TestShutdownKillsReblockingDefer: a deferred function that blocks again
// during the unwind is killed again rather than deadlocking Shutdown.
func TestShutdownKillsReblockingDefer(t *testing.T) {
	e := NewEngine(1)
	e.Go("stubborn", func(p *Proc) {
		defer p.Sleep(time.Hour) // re-blocks during the unwind
		p.Sleep(time.Hour)
	})
	e.Go("stopper", func(p *Proc) { e.Stop() })
	e.RunAll()
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", e.LiveProcs())
	}
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
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Hour) // never releases before the stop
	})
	e.Go("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p)
	})
	e.Go("stopper", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		e.Stop()
	})
	e.RunAll()
	if got := e.Shutdown(); got != 2 {
		t.Fatalf("Shutdown reaped %d, want 2", got)
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
