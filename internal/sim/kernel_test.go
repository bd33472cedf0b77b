package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cudele/internal/runtime"
)

// randomProgramHash runs a seeded program of ten root processes mixing
// Sleep, Yield, Resource.Use, Signal, Group.Go and Schedule, logs every
// step as (now, proc, step) and returns the FNV-1a hash of the log. Every
// choice draws from the engine's random source, so one reordered event
// shifts all later draws and changes the hash. slice > 0 drives the loop
// in Run(until) slices of that width instead of one RunAll.
func randomProgramHash(t *testing.T, seed int64, slice Duration) uint64 {
	t.Helper()
	e := NewEngine(seed)
	rng := e.Rand()
	h := fnv.New64a()
	log := func(who, step string) { fmt.Fprintf(h, "%d %s %s\n", int64(e.Now()), who, step) }

	res := []*Resource{NewResource(e, "r0", 1), NewResource(e, "r1", 2), NewResource(e, "r2", 1)}
	sigs := make([]Signal, 24)
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	// Durations come from a small set so equal-time events are common.
	dur := func() Duration { return Duration(rng.Intn(6)) * 500 * time.Nanosecond }

	var body func(name string, depth, steps int) func(runtime.Task)
	body = func(name string, depth, steps int) func(runtime.Task) {
		return func(tk runtime.Task) {
			p := task(tk)
			for i := 0; i < steps; i++ {
				switch k := rng.Intn(8); {
				case k < 2:
					p.Sleep(dur())
					log(name, "sleep")
				case k == 2:
					p.Yield()
					log(name, "yield")
				case k < 5:
					r := res[rng.Intn(len(res))]
					r.Use(p, dur())
					log(name, "use "+r.Name())
				case k == 5:
					j := rng.Intn(len(sigs))
					v := sigs[j].Wait(p)
					log(name, fmt.Sprintf("sig %d=%v", j, v))
				case k == 6:
					tag := fmt.Sprintf("cb%d", i)
					e.Schedule(dur(), func() { log(name, tag) })
					log(name, "schedule")
				default:
					if depth == 0 {
						g := NewGroup(e)
						for c := 0; c < 2; c++ {
							child := fmt.Sprintf("%s.%d.%d", name, i, c)
							g.Go(child, body(child, 1, 1+rng.Intn(6)))
						}
						g.Wait(p)
						log(name, "joined")
					}
				}
			}
			log(name, "done")
		}
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, body(name, 0, 60))
	}
	e.Go("firer", func(p *Proc) {
		for j, s := range sigs {
			p.Sleep(dur() + time.Microsecond)
			s.Fire(j)
			log("firer", "fire")
		}
	})

	if slice > 0 {
		for until := Time(slice); e.Pending() > 0; until += Time(slice) {
			if now := e.Run(until); now > until {
				t.Fatalf("Run(%d) returned %d", until, now)
			}
		}
	} else {
		e.RunAll()
	}
	if err := e.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		s := r.Snapshot()
		fmt.Fprintf(h, "%s %d %v %d\n", s.Name, s.Acquires, s.BusyArea, s.WaitTotal)
	}
	return h.Sum64()
}

// TestRandomProgramGolden pins the kernel's total (time, seq) order: the
// hashes below were recorded with the channel hand-off kernel that
// preceded the coroutine one (commit 1b40199), so any event the coroutine
// switch or the inline advance reorders fails here, at either GOMAXPROCS
// and however the run is sliced.
func TestRandomProgramGolden(t *testing.T) {
	// {RunAll, 7 µs slices}: the event logs are equal; the pair differs
	// only because every Run end folds the resources' busy-time integrals,
	// which changes the order of the float additions behind BusyArea.
	golden := map[int64][2]uint64{
		1:  {0x5f2c2fd3403a1cb4, 0x35b569cddd25efea},
		7:  {0x38f91d233a5f37c0, 0x28de41c62e0ac16f},
		42: {0xa6e8272052c58ff9, 0x4adac4b3830d36bc},
	}
	for _, procs := range []int{1, 4} {
		prev := goruntime.GOMAXPROCS(procs)
		for seed, want := range golden {
			for i, slice := range []Duration{0, 7 * time.Microsecond} {
				if got := randomProgramHash(t, seed, slice); got != want[i] {
					t.Errorf("GOMAXPROCS %d seed %d slice %v: log hash %#x, want %#x", procs, seed, slice, got, want[i])
				}
			}
		}
		goruntime.GOMAXPROCS(prev)
	}
}

// TestShutdownReleasesCoroutines: a thousand processes parked on a signal
// nobody fires are all reaped, and their coroutines' goroutines are gone.
func TestShutdownReleasesCoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()
	e := NewEngine(1)
	never := NewSignal(e)
	for i := 0; i < 1000; i++ {
		e.Go("parked", func(p *Proc) { never.Wait(p) })
	}
	e.RunAll()
	if got := goruntime.NumGoroutine(); got < 1000 {
		t.Fatalf("%d goroutines with 1000 parked procs", got)
	}
	if got := e.Shutdown(); got != 1000 {
		t.Fatalf("Shutdown reaped %d, want 1000", got)
	}
	for i := 0; goruntime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after Shutdown, want %d", goruntime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func sameLog(t *testing.T, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("log %v, want %v", got, want)
	}
}

// TestSleepInlineAdvanceEdges pins the three guards of Sleep's inline
// advance and the cases on either side of each.
func TestSleepInlineAdvanceEdges(t *testing.T) {
	t.Run("equal-time event first", func(t *testing.T) {
		e := NewEngine(1)
		var log []string
		e.Go("sleeper", func(p *Proc) {
			e.Schedule(5, func() { log = append(log, fmt.Sprint("event@", e.Now())) })
			e.Schedule(6, func() { log = append(log, fmt.Sprint("late@", e.Now())) })
			p.Sleep(5)
			log = append(log, fmt.Sprint("woke@", e.Now()))
		})
		e.RunAll()
		sameLog(t, log, []string{"event@5", "woke@5", "late@6"})
	})
	t.Run("past until", func(t *testing.T) {
		e := NewEngine(1)
		var woke Time
		e.Go("sleeper", func(p *Proc) {
			p.Sleep(10 * time.Millisecond)
			woke = p.Now()
			p.Sleep(time.Millisecond) // inside the second Run's bound
		})
		if now := e.Run(Time(4 * time.Millisecond)); now > Time(4*time.Millisecond) || woke != 0 || e.LiveProcs() != 1 || e.Pending() != 1 {
			t.Fatalf("Run(4ms) = %v, woke %v, live %d, pending %d", now, woke, e.LiveProcs(), e.Pending())
		}
		if now := e.Run(Time(20 * time.Millisecond)); now != Time(11*time.Millisecond) || woke != Time(10*time.Millisecond) || e.LiveProcs() != 0 {
			t.Fatalf("Run(20ms) = %v, woke %v, live %d", now, woke, e.LiveProcs())
		}
	})
	t.Run("after Stop", func(t *testing.T) {
		e := NewEngine(1)
		resumed := false
		e.Go("stopper", func(p *Proc) {
			p.Sleep(time.Millisecond)
			e.Stop()
			p.Sleep(time.Millisecond)
			resumed = true
		})
		if now := e.RunAll(); now != Time(time.Millisecond) || resumed || e.LiveProcs() != 1 {
			t.Fatalf("RunAll = %v, resumed %v, live %d", now, resumed, e.LiveProcs())
		}
		if got := e.Shutdown(); got != 1 || resumed {
			t.Fatalf("Shutdown reaped %d, resumed %v", got, resumed)
		}
	})
	t.Run("yield interleaves", func(t *testing.T) {
		e := NewEngine(1)
		var log []string
		for _, name := range []string{"a", "b"} {
			e.Go(name, func(p *Proc) {
				log = append(log, name+"0")
				p.Yield()
				log = append(log, name+"1")
				p.Sleep(0)
				log = append(log, name+"2")
			})
		}
		e.RunAll()
		sameLog(t, log, []string{"a0", "b0", "a1", "b1", "a2", "b2"})
	})
}

// TestSwitchAllocs: in steady state neither a Sleep that really switches
// nor a queued Acquire/Release allocates.
func TestSwitchAllocs(t *testing.T) {
	for name, step := range map[string]func(*Resource, *Proc){
		// Sleepers with one period always find another's wake due first
		// (or at the same instant), so every Sleep switches.
		"sleep": func(_ *Resource, p *Proc) { p.Sleep(time.Microsecond) },
		"use":   func(r *Resource, p *Proc) { r.Use(p, time.Microsecond) },
	} {
		e := NewEngine(1)
		r := NewResource(e, "cpu", 1)
		quit := false
		for i := 0; i < 4; i++ {
			e.Go("looper", func(p *Proc) {
				for !quit {
					step(r, p)
				}
			})
		}
		slice := func() { e.Run(e.Now() + Time(200*time.Microsecond)) }
		slice() // grow the event heap and the resource queue
		if avg := testing.AllocsPerRun(20, slice); avg != 0 {
			t.Errorf("%s: %.1f allocations per 200 µs slice, want 0", name, avg)
		}
		if name == "use" && r.Snapshot().WaitTotal == 0 {
			t.Errorf("use: the resource was never contended")
		}
		quit = true
		e.RunAll()
		if err := e.LeakCheck(); err != nil {
			t.Error(err)
		}
	}
}

// TestRunFromTwoGoroutines: a process parked by a Run on one goroutine is
// continued by a Run on another, as cl.Run then cl.RunAll may do.
func TestRunFromTwoGoroutines(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	var log []string
	for _, name := range []string{"a", "b"} {
		e.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				r.Use(p, time.Millisecond)
				log = append(log, fmt.Sprint(name, "@", int64(p.Now())/1e6))
			}
		})
	}
	first := make(chan Time)
	go func() { first <- e.Run(Time(2500 * time.Microsecond)) }()
	if now := <-first; now != Time(2*time.Millisecond) || e.LiveProcs() != 2 {
		t.Fatalf("first Run = %v, live %d", now, e.LiveProcs())
	}
	e.RunAll()
	sameLog(t, log, []string{"a@1", "b@2", "a@3", "b@4", "a@5", "b@6"})
	if err := e.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestProcPanicSurfacesInRun: a panicking process used to re-panic on its
// own goroutine and take the test binary down; now the panic arrives in
// Run's caller, names the process, keeps the original value, and leaves
// the engine stopped cleanly with the other processes still reapable.
func TestProcPanicSurfacesInRun(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	boom := errors.New("boom")
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Hour)
	})
	e.Go("ticker", func(p *Proc) { p.Sleep(3) })
	e.Go("bad", func(p *Proc) {
		p.Sleep(5) // the ticker's wake is due first, so this one switches
		panic(boom)
	})
	func() {
		defer func() {
			pp, ok := recover().(*ProcPanic)
			if !ok || pp.Proc != "bad" || pp.Value != boom || !errors.Is(pp, boom) ||
				!strings.HasPrefix(pp.Error(), "sim: proc \"bad\" panicked: boom\n") ||
				!strings.Contains(pp.Error(), "TestProcPanicSurfacesInRun.func") {
				t.Fatalf("recovered %v", pp)
			}
		}()
		e.RunAll()
		t.Fatal("RunAll returned")
	}()
	e.Exclusive(func() {}) // panics if Run left the loop marked running
	if s := r.Snapshot(); s.At != 5 || s.BusyArea != Time(5).Seconds() {
		t.Fatalf("accounting not finalized: at %d, busyArea %v", s.At, s.BusyArea)
	}
	if e.Now() != 5 || e.LiveProcs() != 1 {
		t.Fatalf("now %v, live %d", e.Now(), e.LiveProcs())
	}
	if got := e.Shutdown(); got != 1 {
		t.Fatalf("Shutdown reaped %d, want 1", got)
	}
}

// TestProcGoexitEndsRunCaller: runtime.Goexit in a process (t.Fatal is
// one) ends the goroutine driving Run, not an anonymous one.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := NewEngine(1)
	e.Go("fatal", func(p *Proc) {
		p.Sleep(time.Millisecond)
		goruntime.Goexit()
	})
	returned, done := false, make(chan struct{})
	go func() {
		defer close(done)
		e.RunAll()
		returned = true
	}()
	<-done
	if returned || e.LiveProcs() != 0 {
		t.Fatalf("RunAll returned %v, live %d", returned, e.LiveProcs())
	}
	e.Exclusive(func() {})
}
