// Contract tests: every execution backend must present the same
// semantics through the runtime interfaces — spawn, sleep ordering,
// signal fire/wait, group join, resource FIFO queueing, pipe transfer,
// lock domains, leak accounting, shutdown reaping. The simulated backend additionally
// guarantees exact virtual timestamps; these tests assert only what
// both backends promise (ordering and completion), which is exactly the
// contract the protocol stack is allowed to rely on.
package runtime_test

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cudele/internal/realrt"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

// backends lists every runtime implementation under contract.
func backends() map[string]func() runtime.Runtime {
	return map[string]func() runtime.Runtime{
		"sim":  func() runtime.Runtime { return sim.NewEngine(7) },
		"real": func() runtime.Runtime { return realrt.New(7) },
	}
}

func forEachBackend(t *testing.T, fn func(t *testing.T, rt runtime.Runtime)) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			fn(t, mk())
		})
	}
}

func TestContractKind(t *testing.T) {
	if k := sim.NewEngine(1).Kind(); k != runtime.SimKind {
		t.Fatalf("sim engine Kind = %v", k)
	}
	if k := realrt.New(1).Kind(); k != runtime.RealKind {
		t.Fatalf("real engine Kind = %v", k)
	}
}

func TestContractSpawnRuns(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		var ran atomic.Int64
		for i := 0; i < 10; i++ {
			rt.Spawn("w", func(p runtime.Task) { ran.Add(1) })
		}
		rt.RunAll()
		if err := rt.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 10 {
			t.Fatalf("ran %d tasks, want 10", ran.Load())
		}
		rt.Shutdown()
	})
}

func TestContractSleepOrdering(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		var order []string
		rt.Spawn("slow", func(p runtime.Task) {
			p.Sleep(30 * time.Millisecond)
			order = append(order, "slow")
		})
		rt.Spawn("fast", func(p runtime.Task) {
			p.Sleep(5 * time.Millisecond)
			order = append(order, "fast")
		})
		rt.RunAll()
		rt.Shutdown()
		if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
			t.Fatalf("completion order = %v, want [fast slow]", order)
		}
	})
}

func TestContractClockAdvances(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		var before, after runtime.Time
		rt.Spawn("timer", func(p runtime.Task) {
			before = p.Now()
			p.Sleep(10 * time.Millisecond)
			after = p.Now()
		})
		rt.RunAll()
		rt.Shutdown()
		if elapsed := after - before; elapsed < runtime.Time(10*time.Millisecond) {
			t.Fatalf("sleep advanced the clock by %v, want >= 10ms", time.Duration(elapsed))
		}
	})
}

func TestContractSignal(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		sig := rt.NewSignal()
		var got any
		rt.Spawn("waiter", func(p runtime.Task) {
			got = sig.Wait(p)
		})
		rt.Spawn("firer", func(p runtime.Task) {
			p.Sleep(5 * time.Millisecond)
			sig.Fire("payload")
		})
		rt.RunAll()
		rt.Shutdown()
		if got != "payload" {
			t.Fatalf("waiter got %v, want payload", got)
		}
		if !sig.Fired() {
			t.Fatal("signal not marked fired")
		}
	})
}

func TestContractSignalWaitAfterFire(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		sig := rt.NewSignal()
		var got any
		rt.Spawn("late", func(p runtime.Task) {
			sig.Fire(42)
			got = sig.Wait(p) // already fired: returns immediately
		})
		rt.RunAll()
		rt.Shutdown()
		if got != 42 {
			t.Fatalf("late waiter got %v, want 42", got)
		}
	})
}

func TestContractGroup(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		g := rt.NewGroup()
		var done atomic.Int64
		for i := 0; i < 5; i++ {
			d := time.Duration(i+1) * time.Millisecond
			g.Go("worker", func(p runtime.Task) {
				p.Sleep(d)
				done.Add(1)
			})
		}
		var sawAll bool
		rt.Spawn("waiter", func(p runtime.Task) {
			g.Wait(p)
			sawAll = done.Load() == 5
		})
		rt.RunAll()
		rt.Shutdown()
		if !sawAll {
			t.Fatalf("group Wait returned with %d/5 workers done", done.Load())
		}
	})
}

func TestContractResourceSerializes(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		res := rt.NewResource("cpu", 1)
		var inside, maxInside atomic.Int64
		for i := 0; i < 4; i++ {
			rt.Spawn("w", func(p runtime.Task) {
				res.Acquire(p)
				if cur := inside.Add(1); cur > maxInside.Load() {
					maxInside.Store(cur)
				}
				p.Sleep(2 * time.Millisecond)
				inside.Add(-1)
				res.Release()
			})
		}
		rt.RunAll()
		rt.Shutdown()
		if maxInside.Load() != 1 {
			t.Fatalf("capacity-1 resource admitted %d holders at once", maxInside.Load())
		}
		if res.Acquires() != 4 {
			t.Fatalf("acquires = %d, want 4", res.Acquires())
		}
	})
}

func TestContractResourceFIFO(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		res := rt.NewResource("disk", 1)
		var order []int
		// Holder takes the unit first; contenders then queue in spawn
		// order (they arrive separated by sleeps so arrival is ordered
		// on both backends).
		rt.Spawn("holder", func(p runtime.Task) {
			res.Acquire(p)
			p.Sleep(30 * time.Millisecond)
			res.Release()
		})
		for i := 0; i < 3; i++ {
			i := i
			delay := time.Duration(i+1) * 5 * time.Millisecond
			rt.Spawn("contender", func(p runtime.Task) {
				p.Sleep(delay)
				res.Acquire(p)
				order = append(order, i)
				res.Release()
			})
		}
		rt.RunAll()
		rt.Shutdown()
		if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
			t.Fatalf("grant order = %v, want [0 1 2]", order)
		}
	})
}

// TestContractHandOffFIFOToFreshWaiters is the FIFO contract with no time
// between the arrivals and the release: three contenders queue back to
// back, each as soon as it sees the one before it queued, and the holder
// lets go the moment it sees all three. On the real backend the hand-offs
// find waiters that have only just parked — polling, blocked, or between
// the two — and the grants must still follow arrival.
func TestContractHandOffFIFOToFreshWaiters(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		for round := 0; round < 50; round++ {
			res := rt.NewResource("cpu", 1)
			var order []int
			rt.Spawn("holder", func(p runtime.Task) {
				res.Acquire(p)
				for res.QueueLen() < 3 {
					p.Sleep(time.Microsecond)
				}
				res.Release()
			})
			for i := 0; i < 3; i++ {
				rt.Spawn("contender", func(p runtime.Task) {
					for res.InUse() == 0 || res.QueueLen() != i {
						p.Sleep(time.Microsecond)
					}
					res.Acquire(p)
					order = append(order, i)
					res.Release()
				})
			}
			rt.RunAll()
			if err := rt.LeakCheck(); err != nil {
				t.Fatal(err)
			}
			if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
				t.Fatalf("round %d: grant order = %v, want [0 1 2]", round, order)
			}
		}
		rt.Shutdown()
	})
}

func TestContractPipeTransfers(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		pipe := rt.NewPipe("net", 1<<20) // 1 MiB/s
		var start, end runtime.Time
		rt.Spawn("sender", func(p runtime.Task) {
			start = p.Now()
			pipe.Transfer(p, 1<<15) // 32 KiB -> ~31ms
			end = p.Now()
		})
		rt.RunAll()
		rt.Shutdown()
		if pipe.Bytes() != 1<<15 {
			t.Fatalf("pipe moved %d bytes, want %d", pipe.Bytes(), 1<<15)
		}
		if elapsed := time.Duration(end - start); elapsed < 25*time.Millisecond {
			t.Fatalf("transfer took %v, want >= ~31ms of charged time", elapsed)
		}
	})
}

func TestContractBlocking(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		var ran bool
		rt.Spawn("io", func(p runtime.Task) {
			p.Blocking(func() { ran = true })
		})
		rt.RunAll()
		rt.Shutdown()
		if !ran {
			t.Fatal("Blocking body did not run")
		}
	})
}

func TestContractLeakCheckReportsParked(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		sig := rt.NewSignal() // never fired
		rt.Spawn("stuck", func(p runtime.Task) {
			sig.Wait(p)
		})
		rt.RunAll() // quiesces with one parked task
		if err := rt.LeakCheck(); err == nil {
			t.Fatal("LeakCheck = nil with a parked task, want error")
		}
		if n := rt.Shutdown(); n != 1 {
			t.Fatalf("Shutdown reaped %d tasks, want 1", n)
		}
		if err := rt.LeakCheck(); err != nil {
			t.Fatalf("LeakCheck after Shutdown: %v", err)
		}
	})
}

func TestContractShutdownReapsSleepers(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		sig := rt.NewSignal()
		rt.Spawn("parked", func(p runtime.Task) { sig.Wait(p) })
		rt.Spawn("deepsleep", func(p runtime.Task) {
			sig.Wait(p)
			p.Sleep(time.Hour)
		})
		rt.RunAll()
		if n := rt.Shutdown(); n != 2 {
			t.Fatalf("Shutdown reaped %d tasks, want 2", n)
		}
	})
}

func TestContractRandDeterministicPerSeed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		a := rt.Rand().Intn(1 << 30)
		rt.Shutdown()

		var again runtime.Runtime
		switch rt.Kind() {
		case runtime.SimKind:
			again = sim.NewEngine(7)
		default:
			again = realrt.New(7)
		}
		b := again.Rand().Intn(1 << 30)
		again.Shutdown()
		if a != b {
			t.Fatalf("same seed drew %d then %d", a, b)
		}
	})
}

// TestContractDomainRandSimIsEngineSource: on the simulator every
// domain's source is the engine's, so a draw through a domain takes the
// engine's next number and draws keep one global order — the order every
// calibrated schedule was recorded with.
func TestContractDomainRandSimIsEngineSource(t *testing.T) {
	eng, ref := sim.NewEngine(7), sim.NewEngine(7)
	a, b := eng.NewDomain("a"), eng.NewDomain("b")
	if a.Rand() != eng.Rand() || b.Rand() != eng.Rand() {
		t.Fatal("sim domain Rand is not the engine's source")
	}
	for i, d := range []runtime.Domain{a, b, a, a, b} {
		if got, want := d.Rand().Int63(), ref.Rand().Int63(); got != want {
			t.Fatalf("draw %d through a domain = %d, engine sequence has %d", i, got, want)
		}
	}
}

// TestContractDomainRandRealIsPerDomain: on the real backend each domain
// owns a source seeded from the engine's when the domain is created, so
// the same seed and creation order give the same sequences, and two ranks
// serving in parallel draw from their own sources under -race with no
// report — which a source shared unlocked between them would give.
func TestContractDomainRandRealIsPerDomain(t *testing.T) {
	first := func() [2]int64 {
		e := realrt.New(7)
		defer e.Shutdown()
		a, b := e.NewDomain("a"), e.NewDomain("b")
		if a.Rand() == b.Rand() || a.Rand() == e.Rand() {
			t.Fatal("real domains share a random source")
		}
		return [2]int64{a.Rand().Int63(), b.Rand().Int63()}
	}
	if x, y := first(), first(); x != y || x[0] == x[1] {
		t.Fatalf("first draws %v then %v: want equal per seed and distinct per domain", x, y)
	}

	e := realrt.New(7)
	const perRank = 5000
	var sums [2]int64
	for r := range sums {
		d := e.NewDomain(fmt.Sprintf("mds.%d", r))
		d.Spawn("serve", func(p runtime.Task) {
			for i := 0; i < perRank; i++ {
				sums[r] += d.Rand().Int63n(1000)
				if i%64 == 0 {
					p.Sleep(0) // give the domain up, as a request's service time does
				}
			}
		})
	}
	e.RunAll()
	if err := e.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if sums[0] == 0 || sums[1] == 0 {
		t.Fatalf("draw sums %v: a rank drew nothing", sums)
	}
}

// TestContractDomainExcludes: tasks inside one domain — spawned there or
// entered from the root — never interleave between yield points, so
// unsynchronised read-modify-writes lose no update.
func TestContractDomainExcludes(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		d := rt.NewDomain("d")
		const tasks, rounds = 4, 50
		counter := 0
		body := func(p runtime.Task) {
			for i := 0; i < rounds; i++ {
				v := counter
				counter = v + 1
				p.Sleep(time.Microsecond)
			}
		}
		g := d.NewGroup()
		for i := 0; i < tasks/2; i++ {
			g.Go("resident", body)
			rt.Spawn("visitor", func(p runtime.Task) {
				d.Enter(p)
				defer d.Leave(p)
				body(p)
			})
		}
		joined := false
		rt.Spawn("waiter", func(p runtime.Task) {
			g.Wait(p)
			joined = true
		})
		rt.RunAll()
		if err := rt.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		if counter != tasks*rounds {
			t.Fatalf("counter = %d, want %d", counter, tasks*rounds)
		}
		if !joined {
			t.Fatal("domain group Wait did not return")
		}
	})
}

// TestContractSleepYieldsDomain: Sleep(d) lasts at least d on the
// backend's clock, however short d is, and gives up the task's domain
// for that time — a task that holds a domain except while asleep is
// what lets a second task of the domain run at all.
func TestContractSleepYieldsDomain(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		for _, d := range []time.Duration{1, 500, 5 * time.Microsecond} {
			dom := rt.NewDomain("d")
			var entered atomic.Bool
			sleeps := 0
			dom.Spawn("holder", func(p runtime.Task) {
				for !entered.Load() && sleeps < 10_000_000 {
					t0 := p.Now()
					p.Sleep(d)
					if got := time.Duration(p.Now() - t0); got < d {
						t.Errorf("Sleep(%v) lasted %v", d, got)
						return
					}
					sleeps++
				}
			})
			dom.Spawn("resident", func(runtime.Task) { entered.Store(true) })
			rt.RunAll()
			if err := rt.LeakCheck(); err != nil {
				t.Fatal(err)
			}
			if !entered.Load() {
				t.Fatalf("no task entered the domain during %d calls of Sleep(%v)", sleeps, d)
			}
		}
		rt.Shutdown()
	})
}

// TestContractDomainNesting: Enter is re-entrant, Enter/Leave pairs nest
// across domains, and a task may sleep, park and block at any depth.
func TestContractDomainNesting(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		a, b := rt.NewDomain("a"), rt.NewDomain("b")
		sig := rt.NewSignal()
		var inA, inB int
		rt.Spawn("nester", func(p runtime.Task) {
			a.Enter(p)
			a.Enter(p)
			inA++
			b.Enter(p)
			inB++
			p.Sleep(time.Millisecond)
			sig.Wait(p)
			p.Blocking(func() {})
			a.Enter(p)
			inA++
			a.Leave(p)
			inB++
			b.Leave(p)
			a.Leave(p)
			inA++
			a.Leave(p)
		})
		b.Spawn("firer", func(p runtime.Task) {
			p.Sleep(2 * time.Millisecond)
			inB++
			sig.Fire(nil)
		})
		rt.RunAll()
		if err := rt.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		if inA != 3 || inB != 3 {
			t.Fatalf("inA = %d, inB = %d, want 3 and 3", inA, inB)
		}
	})
}

// TestContractTogether: the body runs once, with both domains' state
// its own, and the task is back where it was afterwards.
func TestContractTogether(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		a, b := rt.NewDomain("a"), rt.NewDomain("b")
		var x, y, moved int
		a.Spawn("a", func(p runtime.Task) {
			for i := 0; i < 20; i++ {
				x++
				p.Sleep(time.Microsecond)
			}
		})
		b.Spawn("b", func(p runtime.Task) {
			for i := 0; i < 20; i++ {
				y++
				p.Sleep(time.Microsecond)
			}
		})
		rt.Spawn("mover", func(p runtime.Task) {
			for i := 0; i < 20; i++ {
				rt.Together(p, []runtime.Domain{b, a}, func() { x, y = y, x })
				moved++
				p.Sleep(time.Microsecond)
			}
		})
		rt.RunAll()
		rt.Shutdown()
		if x+y != 40 || moved != 20 {
			t.Fatalf("x+y = %d, moved = %d, want 40 and 20", x+y, moved)
		}
	})
}

// TestContractSimDomainIsFree: on the simulator a domain changes
// nothing — the same schedule produces the same interleaving and the
// same final time with and without Enter/Leave around every step — and
// costs no allocation.
func TestContractSimDomainIsFree(t *testing.T) {
	run := func(useDomains bool) (order []string, end runtime.Time) {
		eng := sim.NewEngine(7)
		d := eng.NewDomain("d")
		for _, name := range []string{"a", "b", "c"} {
			name := name
			spawn := eng.Spawn
			if useDomains {
				spawn = d.Spawn
			}
			spawn(name, func(p runtime.Task) {
				for i := 0; i < 3; i++ {
					if useDomains {
						d.Enter(p)
					}
					order = append(order, name)
					p.Sleep(time.Duration(len(name)+i) * time.Millisecond)
					if useDomains {
						d.Leave(p)
					}
				}
			})
		}
		end = eng.RunAll()
		eng.Shutdown()
		return order, end
	}
	plain, plainEnd := run(false)
	withDom, domEnd := run(true)
	if plainEnd != domEnd || len(plain) != len(withDom) {
		t.Fatalf("domains changed the run: end %v vs %v, %d vs %d steps", plainEnd, domEnd, len(plain), len(withDom))
	}
	for i := range plain {
		if plain[i] != withDom[i] {
			t.Fatalf("domains changed the order at step %d: %v vs %v", i, plain, withDom)
		}
	}

	eng := sim.NewEngine(7)
	var allocs float64
	eng.Spawn("t", func(p runtime.Task) {
		allocs = testing.AllocsPerRun(100, func() {
			d := eng.NewDomain("rank")
			d.Enter(p)
			d.Leave(p)
		})
	})
	eng.RunAll()
	eng.Shutdown()
	if allocs != 0 {
		t.Fatalf("sim NewDomain+Enter+Leave allocates %.1f objects, want 0", allocs)
	}
}

// panics runs fn and returns what it panicked with, nil if it returned.
func panics(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestContractMisusePanics: the misuse each backend's own tests used to
// pin separately — a second Fire, a Release nobody holds, a group counted
// below zero, a resource with no capacity, a pipe with no rate, a negative
// transfer — panics on both, and leaves the object as it was.
func TestContractMisusePanics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		sig := rt.NewSignal()
		sig.Fire("first")
		pipe := rt.NewPipe("net", 1<<20)
		for name, fn := range map[string]func(){
			"second Fire":        func() { sig.Fire("second") },
			"Release below zero": rt.NewResource("idle", 1).Release,
			"group below zero":   func() { rt.NewGroup().Add(-1) },
			"capacity 0":         func() { rt.NewResource("none", 0) },
			"rate 0":             func() { rt.NewPipe("none", 0) },
			"rate < 0":           func() { rt.NewPipe("none", -1) },
		} {
			if panics(fn) == nil {
				t.Errorf("%s did not panic", name)
			}
		}
		var got any
		rt.Spawn("t", func(p runtime.Task) {
			if panics(func() { pipe.Transfer(p, -1) }) == nil {
				t.Error("negative Transfer did not panic")
			}
			got = sig.Wait(p)
		})
		rt.RunAll()
		if err := rt.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		if got != "first" || pipe.Bytes() != 0 {
			t.Fatalf("after the misuse: signal value %v, pipe bytes %d; want first and 0", got, pipe.Bytes())
		}
	})
}

// TestContractGroupAfterZero: a group's completion fires once, the first
// time the count reaches zero. Using the group again neither fires it a
// second time (a double Fire would panic in Done) nor parks a waiter.
func TestContractGroupAfterZero(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		g := rt.NewGroup()
		rounds := 0
		rt.Spawn("driver", func(p runtime.Task) {
			g.Wait(p) // never used: nothing pending
			for i := 0; i < 2; i++ {
				g.Go("w", func(p runtime.Task) { p.Sleep(time.Millisecond) })
				g.Wait(p)
				rounds++
				p.Sleep(5 * time.Millisecond) // the second round's worker finishes on its own
			}
		})
		rt.RunAll()
		if err := rt.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		if rounds != 2 {
			t.Fatalf("driver finished %d rounds, want 2", rounds)
		}
	})
}

// TestContractQueueAccounting: while a task queues, TryAcquire is refused
// and the queue shows in QueueLen and Snapshot; once the resource drains,
// the waits are in WaitTotal and MeanWait and a unit can be tried for.
func TestContractQueueAccounting(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		res := rt.NewResource("cpu", 1)
		const hold = 10 * time.Millisecond
		for i := 0; i < 2; i++ {
			rt.Spawn("user", func(p runtime.Task) { res.Use(p, hold) })
		}
		rt.Spawn("probe", func(p runtime.Task) {
			p.Sleep(hold / 2) // one user holds the unit, the other queues
			s := res.Snapshot()
			if res.TryAcquire() || res.QueueLen() != 1 || res.InUse() != 1 || s.QueueLen != 1 || s.InUse != 1 {
				t.Errorf("mid-run: TryAcquire granted or queue %d, in use %d, snapshot %+v", res.QueueLen(), res.InUse(), s)
			}
		})
		rt.RunAll()
		if err := rt.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		s := res.Snapshot()
		if s.Acquires != 2 || s.QueueLen != 0 || s.InUse != 0 || s.Name != "cpu" || s.Capacity != 1 {
			t.Fatalf("drained snapshot %+v", s)
		}
		// The second user waited out most of the first one's hold.
		if s.WaitTotal < hold/2 || res.MeanWait() != s.WaitTotal/2 {
			t.Fatalf("wait total %v, mean %v, want >= %v and half of it", s.WaitTotal, res.MeanWait(), hold/2)
		}
		if s.BusyArea < (2*hold).Seconds()*0.9 || s.Utilization <= 0 || s.Utilization > 1 {
			t.Fatalf("busy area %v, utilization %v after two holds of %v", s.BusyArea, s.Utilization, hold)
		}
		if !res.TryAcquire() || res.TryAcquire() || res.Acquires() != 2 {
			t.Fatalf("idle capacity-1 resource: want one TryAcquire granted, uncounted (acquires %d)", res.Acquires())
		}
	})
}

// TestContractOneImplementation: Signal, Group and Pipe are written once,
// in this package, so both backends hand out the same concrete types. A
// second copy growing back in a backend fails here.
func TestContractOneImplementation(t *testing.T) {
	s, r := sim.NewEngine(1), realrt.New(1)
	defer r.Shutdown()
	for _, pair := range [][2]any{
		{s.NewSignal(), r.NewSignal()},
		{s.NewGroup(), r.NewGroup()},
		{s.NewDomain("d").NewGroup(), r.NewDomain("d").NewGroup()},
		{s.NewPipe("p", 1), r.NewPipe("p", 1)},
	} {
		st, rt := reflect.TypeOf(pair[0]), reflect.TypeOf(pair[1])
		if st != rt || st.Elem().PkgPath() != "cudele/internal/runtime" {
			t.Errorf("sim hands out %v, realrt %v; want one type of internal/runtime", st, rt)
		}
	}
}

// TestContractFastPathsDoNotAllocate: an uncontended Acquire+Release and
// a Wait on a fired signal allocate nothing on either backend.
func TestContractFastPathsDoNotAllocate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, rt runtime.Runtime) {
		res, sig := rt.NewResource("cpu", 1), rt.NewSignal()
		sig.Fire(nil)
		rt.Spawn("t", func(p runtime.Task) {
			if n := testing.AllocsPerRun(100, func() { res.Acquire(p); res.Release() }); n != 0 {
				t.Errorf("Acquire+Release allocates %.1f objects, want 0", n)
			}
			if n := testing.AllocsPerRun(100, func() { sig.Wait(p) }); n != 0 {
				t.Errorf("Wait on a fired signal allocates %.1f objects, want 0", n)
			}
		})
		rt.RunAll()
		rt.Shutdown()
	})
}

// TestSuiteOnOneP runs the contract again with GOMAXPROCS=1, where the
// real backend's parking tasks must not poll for their wakeup — the waker
// cannot run while they do, and every wait would last until the
// scheduler's 10 ms preemption. The bound on the wall time is loose,
// several times what the contract takes with every P; a suite that stalls
// per park misses it by far more.
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
			t.Fatalf("contract with %v: %v\n%s", env, err, out)
		}
		return time.Since(t0)
	}
	every, one := run(), run("GOMAXPROCS=1")
	t.Logf("contract: %v with every P, %v with one", every, one)
	if limit := 5*every + 5*time.Second; one > limit {
		t.Fatalf("contract took %v with GOMAXPROCS=1, want under %v (%v with every P)", one, limit, every)
	}
}
