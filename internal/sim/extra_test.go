package sim

import (
	"cudele/internal/runtime"

	"testing"
	"time"
)

func TestStopHaltsLoop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Millisecond, func() {
		ran++
		e.Stop()
	})
	e.Schedule(2*time.Millisecond, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
}

func TestNegativeScheduleClamped(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(5*time.Millisecond, func() {
		e.Schedule(-time.Hour, func() { at = e.Now() })
	})
	e.RunAll()
	if at != Time(5*time.Millisecond) {
		t.Fatalf("negative-delay event at %v", at)
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine(1)
	e.Go("worker", func(p *Proc) {
		if p.Name() != "worker" {
			t.Errorf("name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("engine accessor broken")
		}
		p.Sleep(0)
	})
	e.RunAll()
}

// TestResourceAccessors: the simulator's Snapshot reads exact values — an
// uncontended use waits for nothing.
func TestResourceAccessors(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 2)
	if s := r.Snapshot(); s.Name != "disk" || s.Capacity != 2 {
		t.Fatalf("snapshot %+v", s)
	}
	e.Go("a", func(p *Proc) {
		r.Acquire(p)
		if s := r.Snapshot(); s.InUse != 1 {
			t.Errorf("in use = %d", s.InUse)
		}
		p.Sleep(time.Millisecond)
		r.Release()
	})
	e.RunAll()
	if s := r.Snapshot(); s.Acquires != 1 || s.WaitTotal != 0 {
		t.Fatalf("acquires = %d, wait = %v for one uncontended use", s.Acquires, s.WaitTotal)
	}
}

// TestResourceQueueLenAndMeanWait: a probe outside any process sees the
// queued waiter, and the waiter's wait is exactly the rest of the hold.
func TestResourceQueueLenAndMeanWait(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	e.Go("holder", func(p *Proc) { r.Use(p, 10*time.Millisecond) })
	e.Go("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p)
		r.Release()
	})
	probed := false
	e.Schedule(5*time.Millisecond, func() {
		if s := r.Snapshot(); s.QueueLen != 1 {
			t.Errorf("queue len = %d, want 1", s.QueueLen)
		}
		probed = true
	})
	e.RunAll()
	if !probed {
		t.Fatal("probe never ran")
	}
	if s := r.Snapshot(); s.WaitTotal != 9*time.Millisecond || s.Acquires != 2 {
		t.Fatalf("wait total = %v over %d acquires, want 9ms over 2", s.WaitTotal, s.Acquires)
	}
}

func TestNewResourceBadCapacityPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewResource(e, "x", 0)
}

func TestNewPipeBadRatePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("rate 0 did not panic")
		}
	}()
	e.NewPipe("x", 0)
}

func TestPipeAccessorsAndNegativeTransfer(t *testing.T) {
	e := NewEngine(1)
	pp := e.NewPipe("nic", 1e6)
	before := pp.Snapshot()
	e.Go("w", func(p *Proc) {
		pp.Transfer(p, 1e6)
		if u := pp.Snapshot().UtilizationSince(before); u < 0.99 {
			t.Errorf("windowed pipe utilization = %v", u)
		}
	})
	e.RunAll()
	if u := pp.Snapshot().Utilization; u < 0.99 {
		t.Fatalf("pipe utilization = %v", u)
	}
	e.Go("neg", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative transfer did not panic")
			}
		}()
		pp.Transfer(p, -1)
	})
	e.RunAll()
}

func TestGroupNegativeCounterPanics(t *testing.T) {
	e := NewEngine(1)
	g := e.NewDomain("").NewGroup()
	defer func() {
		if recover() == nil {
			t.Fatal("negative group counter did not panic")
		}
	}()
	g.Add(-1)
}

func TestGroupWaitAfterDone(t *testing.T) {
	e := NewEngine(1)
	g := e.NewDomain("").NewGroup()
	g.Go("w", func(p runtime.Task) { p.Sleep(time.Millisecond) })
	waited := 0
	e.Go("late", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		g.Wait(p) // already done: returns immediately
		waited++
	})
	e.Go("never-registered", func(p *Proc) {
		fresh := e.NewDomain("").NewGroup()
		fresh.Wait(p) // empty group: returns immediately
		waited++
	})
	e.RunAll()
	if waited != 2 {
		t.Fatalf("waited = %d", waited)
	}
}

func TestRunReentrancePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant Run did not panic")
		}
	}()
	e.Schedule(0, func() { e.Run(0) })
	e.RunAll()
}
