package sim

import (
	"cudele/internal/runtime"

	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("final time = %v, want 3ms", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = p.Now()
	})
	e.RunAll()
	if wake != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
	if len(e.live) != 0 {
		t.Fatalf("leaked %d procs", len(e.live))
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * time.Millisecond)
		trace = append(trace, "b1")
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "b3")
	})
	e.RunAll()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Millisecond, func() { ran++ })
	e.Schedule(time.Hour, func() { ran++ })
	e.Run(Time(time.Second))
	if ran != 1 {
		t.Fatalf("ran %d events before deadline, want 1", ran)
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(e.queue))
	}
	e.RunAll()
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestSignal(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	var got interface{}
	var at Time
	e.Go("waiter", func(p *Proc) {
		got = s.Wait(p)
		at = p.Now()
	})
	e.Go("firer", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		s.Fire(42)
	})
	e.RunAll()
	if got != 42 {
		t.Fatalf("signal value = %v, want 42", got)
	}
	if at != Time(7*time.Millisecond) {
		t.Fatalf("waiter resumed at %v, want 7ms", at)
	}
}

func TestSignalPreFired(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	s.Fire("x")
	var got interface{}
	e.Go("waiter", func(p *Proc) { got = s.Wait(p) })
	e.RunAll()
	if got != "x" {
		t.Fatalf("pre-fired signal value = %v", got)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	s.Fire(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Fire did not panic")
		}
	}()
	s.Fire(nil)
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	e.RunAll()
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	if len(finish) != 3 {
		t.Fatalf("finishes = %v", finish)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityParallel(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "pool", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	e.RunAll()
	// Two at a time: finish at 10,10,20,20 ms.
	want := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finish, want)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	e.Go("user", func(p *Proc) {
		r.Use(p, 30*time.Millisecond)
		p.Sleep(10 * time.Millisecond) // idle tail
	})
	e.RunAll()
	u := r.Snapshot().Utilization
	if u < 0.74 || u > 0.76 {
		t.Fatalf("utilization = %v, want 0.75", u)
	}
}

func TestResourceReleaseBelowZeroPanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release below zero did not panic")
		}
	}()
	r.Release()
}

func TestPipeTransferTime(t *testing.T) {
	e := NewEngine(1)
	pipe := e.NewPipe("nic", 100e6) // 100 MB/s
	var done Time
	e.Go("xfer", func(p *Proc) {
		pipe.Transfer(p, 50e6) // 50 MB -> 0.5 s
		done = p.Now()
	})
	e.RunAll()
	if got := done.Seconds(); got < 0.499 || got > 0.501 {
		t.Fatalf("transfer finished at %vs, want 0.5s", got)
	}
	if s := pipe.Snapshot(); s.Acquires != 1 || s.BusyArea < 0.499 || s.BusyArea > 0.501 {
		t.Fatalf("pipe snapshot %+v, want one transfer busy for 0.5s", s)
	}
}

func TestPipeSerializes(t *testing.T) {
	e := NewEngine(1)
	pipe := e.NewPipe("nic", 1e6)
	var finish []Time
	for i := 0; i < 2; i++ {
		e.Go("xfer", func(p *Proc) {
			pipe.Transfer(p, 1e6)
			finish = append(finish, p.Now())
		})
	}
	e.RunAll()
	if finish[0] != Time(time.Second) || finish[1] != Time(2*time.Second) {
		t.Fatalf("finishes = %v", finish)
	}
}

func TestGroupWait(t *testing.T) {
	e := NewEngine(1)
	g := e.NewDomain("").NewGroup()
	var doneAt Time
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		g.Go("worker", func(p runtime.Task) { p.Sleep(d) })
	}
	e.Go("waiter", func(p *Proc) {
		g.Wait(p)
		doneAt = p.Now()
	})
	e.RunAll()
	if doneAt != Time(3*time.Millisecond) {
		t.Fatalf("group done at %v, want 3ms", doneAt)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		r := NewResource(e, "cpu", 1)
		var finish []Time
		for i := 0; i < 20; i++ {
			e.Go("w", func(p *Proc) {
				d := Duration(e.Rand().Intn(1000)+1) * time.Microsecond
				r.Use(p, d)
				p.Sleep(Duration(e.Rand().Intn(500)) * time.Microsecond)
				finish = append(finish, p.Now())
			})
		}
		e.RunAll()
		return finish
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUtilizationWindow(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	var before, after runtime.ResourceSnapshot
	e.Go("w", func(p *Proc) {
		p.Sleep(10 * time.Millisecond) // idle prefix
		before = r.Snapshot()
		r.Use(p, 10*time.Millisecond)
		after = r.Snapshot()
	})
	e.RunAll()
	if winU := after.UtilizationSince(before); winU < 0.99 || winU > 1.01 {
		t.Fatalf("windowed utilization = %v, want 1.0", winU)
	}
	if u := before.UtilizationSince(before); u != 0 {
		t.Fatalf("utilization over an empty window = %v, want 0", u)
	}
	total := r.Snapshot().Utilization
	if total < 0.49 || total > 0.51 {
		t.Fatalf("total utilization = %v, want 0.5", total)
	}
}
