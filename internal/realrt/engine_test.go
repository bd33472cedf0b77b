package realrt

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cudele/internal/runtime"
)

// lockFree reports whether nothing holds d's lock.
func lockFree(d *Domain) bool {
	if !d.mu.TryLock() {
		return false
	}
	d.mu.Unlock()
	return true
}

// assertAllFree fails the test when any domain of e is still locked.
func assertAllFree(t *testing.T, e *Engine) {
	t.Helper()
	for _, d := range e.domains {
		if !lockFree(d) {
			t.Errorf("domain %q is still locked", d.name)
		}
	}
}

// TestDomainExcludes runs tasks that enter one domain — some spawned in
// it, some entering from the root — and has each do unsynchronised
// read-modify-writes with yields in between. The race detector checks
// the exclusion, the final count checks no update was lost.
func TestDomainExcludes(t *testing.T) {
	e := New(1)
	d := e.newDomain("d")
	const tasks, rounds = 6, 200
	counter := 0
	var inside, maxInside atomic.Int64
	body := func(p runtime.Task) {
		for i := 0; i < rounds; i++ {
			if n := inside.Add(1); n > maxInside.Load() {
				maxInside.Store(n)
			}
			v := counter
			counter = v + 1
			inside.Add(-1)
			p.Sleep(0)
		}
	}
	for i := 0; i < tasks/2; i++ {
		d.Spawn("in", body)
		e.Spawn("from-root", func(p runtime.Task) {
			d.Enter(p)
			defer d.Leave(p)
			body(p)
		})
	}
	e.RunAll()
	if n := e.Shutdown(); n != 0 {
		t.Fatalf("shutdown reaped %d tasks", n)
	}
	if counter != tasks*rounds {
		t.Fatalf("counter = %d, want %d", counter, tasks*rounds)
	}
	if maxInside.Load() != 1 {
		t.Fatalf("%d tasks were inside the domain at once", maxInside.Load())
	}
	assertAllFree(t, e)
}

// TestDomainsOverlap is a rendezvous that completes only if two tasks
// are inside their two domains at the same time: each announces itself
// and then waits, still inside, for the other. Under one shared lock the
// first would wait forever and the test would time out.
func TestDomainsOverlap(t *testing.T) {
	e := New(1)
	a, b := e.newDomain("a"), e.newDomain("b")
	hereA, hereB := make(chan struct{}), make(chan struct{})
	a.Spawn("a", func(runtime.Task) {
		close(hereA)
		<-hereB
	})
	b.Spawn("b", func(runtime.Task) {
		close(hereB)
		<-hereA
	})
	e.RunAll()
	if n := e.Shutdown(); n != 0 {
		t.Fatalf("shutdown reaped %d tasks", n)
	}
}

// TestDomainRandLeavesEngineSource: a domain takes one number from the
// engine's source when it is created and none afterwards, so the harness
// sequence does not depend on how much the daemons draw.
func TestDomainRandLeavesEngineSource(t *testing.T) {
	next := func(draws int) int64 {
		e := New(3)
		defer e.Shutdown()
		d := e.newDomain("mds.0")
		for i := 0; i < draws; i++ {
			d.Rand().Uint64()
		}
		return e.Rand().Int63()
	}
	if a, b := next(0), next(1000); a != b {
		t.Fatalf("engine draw after 0 domain draws = %d, after 1000 = %d", a, b)
	}
}

// TestEnterReentrant nests Enter calls, including re-entry of a domain
// already on the stack, and checks after each step that exactly the
// innermost domain is held.
func TestEnterReentrant(t *testing.T) {
	e := New(1)
	a, b := e.newDomain("a"), e.newDomain("b")
	held := func(want *Domain) {
		t.Helper()
		for _, d := range e.domains {
			if free := lockFree(d); free == (d == want) {
				t.Errorf("domain %q free=%v while the task is in %q", d.name, free, want.name)
			}
		}
	}
	e.Spawn("t", func(p runtime.Task) {
		held(e.root)
		a.Enter(p)
		held(a)
		a.Enter(p) // re-entrant: no lock operation
		held(a)
		b.Enter(p)
		held(b)
		a.Enter(p) // a again, through b
		held(a)
		a.Leave(p)
		held(b)
		b.Leave(p)
		held(a)
		a.Leave(p)
		held(a)
		a.Leave(p)
		held(e.root)
	})
	e.RunAll()
	e.Shutdown()
	assertAllFree(t, e)
}

// TestLeaveWithoutEnterPanics pins the misuse check.
func TestLeaveWithoutEnterPanics(t *testing.T) {
	e := New(1)
	d := e.newDomain("d")
	var recovered any
	e.Spawn("t", func(p runtime.Task) {
		defer func() { recovered = recover() }()
		d.Leave(p)
	})
	e.RunAll()
	e.Shutdown()
	if recovered == nil {
		t.Fatal("Leave without Enter did not panic")
	}
}

// TestForeignDomainReleased has a root task enter a domain and then
// sleep, park on a signal, and block in I/O there. Each time a task of
// that domain must get to run — it is what ends the wait — which it can
// only do if the visitor released the domain.
func TestForeignDomainReleased(t *testing.T) {
	e := New(1)
	d := e.newDomain("d")
	sig := e.NewSignal()
	ioDone := make(chan struct{})
	var slept atomic.Bool
	e.Spawn("visitor", func(p runtime.Task) {
		d.Enter(p)
		defer d.Leave(p)
		for !slept.Load() {
			p.Sleep(time.Millisecond)
		}
		sig.Wait(p)
		p.Blocking(func() { <-ioDone })
	})
	d.Spawn("resident", func(p runtime.Task) {
		slept.Store(true)
		p.Sleep(0)
		sig.Fire(nil)
		p.Sleep(0)
		close(ioDone)
	})
	e.RunAll()
	if n := e.Shutdown(); n != 0 {
		t.Fatalf("shutdown reaped %d tasks", n)
	}
	assertAllFree(t, e)
}

// TestShutdownUnwindsNestedDomains parks tasks three domains deep — one
// on a signal, one asleep — and checks Shutdown reaps them and leaves
// every lock free.
func TestShutdownUnwindsNestedDomains(t *testing.T) {
	e := New(1)
	a, b, c := e.newDomain("a"), e.newDomain("b"), e.newDomain("c")
	never := e.NewSignal()
	deep := func(wait func(p runtime.Task)) func(runtime.Task) {
		return func(p runtime.Task) {
			a.Enter(p)
			defer a.Leave(p)
			b.Enter(p)
			defer b.Leave(p)
			c.Enter(p)
			defer c.Leave(p)
			wait(p)
			t.Error("wait returned")
		}
	}
	e.Spawn("parked", deep(func(p runtime.Task) { never.Wait(p) }))
	// The sleeper never counts as blocked, so RunAll cannot be used to
	// wait for it; sync on it entering the sleep instead.
	asleep := make(chan struct{})
	e.Spawn("asleep", deep(func(p runtime.Task) {
		close(asleep)
		p.Sleep(time.Hour)
	}))
	<-asleep
	if n := e.Shutdown(); n != 2 {
		t.Fatalf("shutdown reaped %d tasks, want 2", n)
	}
	if err := e.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	assertAllFree(t, e)
}

// TestExclusiveExcludesEveryDomain runs tasks in several domains, each
// doing unsynchronised updates, while an outside goroutine reads all of
// their state under Exclusive. The race detector checks the reads; the
// inside count checks no task was in any domain meanwhile.
func TestExclusiveExcludesEveryDomain(t *testing.T) {
	e := New(1)
	const domains, rounds = 4, 300
	counters := make([]int, domains)
	var inside atomic.Int64
	for i := 0; i < domains; i++ {
		i := i
		e.newDomain("d").Spawn("w", func(p runtime.Task) {
			for r := 0; r < rounds; r++ {
				inside.Add(1)
				counters[i]++
				inside.Add(-1)
				p.Sleep(10 * time.Microsecond)
			}
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			e.Exclusive(nil, func() {
				if n := inside.Load(); n != 0 {
					t.Errorf("%d tasks inside a domain during Exclusive", n)
				}
				sum := 0
				for _, c := range counters {
					sum += c
				}
				_ = sum
			})
		}
	}()
	e.RunAll()
	wg.Wait()
	e.Shutdown()
	for i, c := range counters {
		if c != rounds {
			t.Errorf("counter %d = %d, want %d", i, c, rounds)
		}
	}
	assertAllFree(t, e)
}

// TestExclusiveFromTask: a task's Exclusive holds every domain, its own
// included, and gives the task back the domain it was in — the root, or
// one it entered — and refuses to yield inside.
func TestExclusiveFromTask(t *testing.T) {
	e := New(1)
	a, b := e.newDomain("a"), e.newDomain("b")
	const rounds = 200
	var x, y, back int
	a.Spawn("a", func(p runtime.Task) {
		for i := 0; i < rounds; i++ {
			x++
			p.Sleep(0)
		}
	})
	b.Spawn("b", func(p runtime.Task) {
		for i := 0; i < rounds; i++ {
			y++
			p.Sleep(0)
		}
	})
	var sleepPanicked bool
	e.Spawn("mover", func(p runtime.Task) {
		for i := 0; i < rounds; i++ {
			if i%2 == 1 {
				a.Enter(p)
			}
			e.Exclusive(p, func() {
				x, y = y, x
				for _, d := range e.domains {
					if lockFree(d) {
						t.Errorf("Exclusive does not hold domain %q", d.name)
					}
				}
			})
			if i%2 == 1 {
				x++ // back in a: the race detector checks it
				back++
				a.Leave(p)
			}
		}
		e.Exclusive(p, func() {
			defer func() { sleepPanicked = recover() != nil }()
			p.Sleep(0)
		})
	})
	e.RunAll()
	e.Shutdown()
	if x+y != 2*rounds+back {
		t.Fatalf("x+y = %d, want %d", x+y, 2*rounds+back)
	}
	if !sleepPanicked {
		t.Fatal("Sleep inside Exclusive did not panic")
	}
	assertAllFree(t, e)
}

// TestNilTaskIsOutsideTaskContext pins the set-up form: Enter and Leave
// with no task do nothing.
func TestNilTaskIsOutsideTaskContext(t *testing.T) {
	e := New(1)
	d := e.newDomain("d")
	d.Enter(nil)
	if !lockFree(d) {
		t.Fatal("Enter(nil) took the lock")
	}
	d.Leave(nil)
}

// sleepLengths are one sleep on either side of spinBelow's two regimes
// and one in the middle of the spinning one.
var sleepLengths = []time.Duration{1, 500, 5 * time.Microsecond}

// TestSleepContract holds the spinning and the timed sleep to one
// contract: Sleep(d) returns no earlier than d, and releases the domain
// so that a task waiting for it gets in.
func TestSleepContract(t *testing.T) {
	for _, d := range sleepLengths {
		e := New(1)
		dom := e.newDomain("d")
		var entered atomic.Bool
		dom.Spawn("holder", func(p runtime.Task) {
			// The only point at which this task gives up dom is inside
			// Sleep, so the resident can only have run during one.
			deadline := time.Now().Add(10 * time.Second)
			for !entered.Load() {
				t0 := time.Now()
				p.Sleep(d)
				if got := time.Since(t0); got < d {
					t.Errorf("Sleep(%v) returned after %v", d, got)
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("no task entered the domain during 10 s of Sleep(%v)", d)
					return
				}
			}
		})
		dom.Spawn("resident", func(runtime.Task) { entered.Store(true) })
		e.RunAll()
		if n := e.Shutdown(); n != 0 {
			t.Fatalf("Sleep(%v): shutdown reaped %d tasks", d, n)
		}
		assertAllFree(t, e)
	}
}

// TestSleepDoesNotAllocate: a short sleep spins, a long one reuses the
// per-task timer its first call created.
func TestSleepDoesNotAllocate(t *testing.T) {
	for _, d := range sleepLengths {
		e := New(1)
		var allocs float64
		e.Spawn("sleeper", func(p runtime.Task) {
			allocs = testing.AllocsPerRun(200, func() { p.Sleep(d) })
		})
		e.RunAll()
		e.Shutdown()
		if allocs != 0 {
			t.Fatalf("Sleep(%v) allocates %.1f objects per call, want 0", d, allocs)
		}
	}
}

// TestShutdownUnwindsShortSleepers kills tasks that do nothing but
// sleep, two domains deep: a spinning sleep has no wakeup to receive, so
// it must notice the kill itself, and leave every lock free.
func TestShutdownUnwindsShortSleepers(t *testing.T) {
	for _, d := range sleepLengths {
		e := New(1)
		a, b := e.newDomain("a"), e.newDomain("b")
		asleep := make(chan struct{})
		e.Spawn("sleeper", func(p runtime.Task) {
			a.Enter(p)
			defer a.Leave(p)
			b.Enter(p)
			defer b.Leave(p)
			close(asleep)
			for {
				p.Sleep(d)
			}
		})
		<-asleep
		if n := e.Shutdown(); n != 1 {
			t.Fatalf("Sleep(%v): shutdown reaped %d tasks, want 1", d, n)
		}
		if err := e.LeakCheck(); err != nil {
			t.Fatal(err)
		}
		assertAllFree(t, e)
	}
}

// TestGroupAcrossDomains joins tasks that finish in a different domain
// than the waiter's. The waiter starts them while it holds their domain:
// started from outside, the first worker (it does not sleep) could finish
// and bring the group to zero — which fires it, once — before the second
// was added, and the waiter then summed a partial result.
func TestGroupAcrossDomains(t *testing.T) {
	e := New(1)
	d := e.newDomain("d")
	g := d.NewGroup()
	results := make([]int, 8)
	sum := 0
	e.Spawn("waiter", func(p runtime.Task) {
		d.Enter(p)
		for i := range results {
			g.Go("w", func(p runtime.Task) {
				p.Sleep(time.Duration(i) * 100 * time.Microsecond)
				results[i] = i + 1
			})
		}
		d.Leave(p)
		g.Wait(p)
		for _, r := range results {
			sum += r
		}
	})
	e.RunAll()
	if n := e.Shutdown(); n != 0 {
		t.Fatalf("shutdown reaped %d tasks", n)
	}
	if sum != 36 {
		t.Fatalf("sum = %d, want 36", sum)
	}
}

// TestNetHopFailureStopsTheTask: a hop whose round trip fails used to be
// dropped, so the Call went on and its latency had no network in it. With
// the listener gone the next hop has to dial, the dial is refused, and
// the calling task panics naming the hop — holding its domain again, so
// the unwind releases it.
func TestNetHopFailureStopsTheTask(t *testing.T) {
	e := New(1)
	if err := e.EnableLoopback(); err != nil {
		t.Fatal(err)
	}
	var before, after any
	e.Spawn("caller", func(p runtime.Task) {
		defer func() { after = recover() }()
		func() {
			defer func() { before = recover() }()
			e.NetHop(p)
		}()
		e.net.close()
		e.NetHop(p)
	})
	e.RunAll()
	if before != nil {
		t.Fatalf("hop over a live listener panicked: %v", before)
	}
	msg, _ := after.(string)
	if !strings.HasPrefix(msg, "realrt: loopback hop: ") || len(msg) == len("realrt: loopback hop: ") {
		t.Fatalf("hop over a closed listener: recovered %v, want a realrt: loopback hop: <err> panic", after)
	}
	if n := e.Shutdown(); n != 0 {
		t.Fatalf("shutdown reaped %d tasks", n)
	}
	assertAllFree(t, e)
}

// TestEnableLoopbackTwice: a second EnableLoopback used to overwrite the
// first endpoint without closing it, so its listener and pooled
// connections outlived Shutdown. Now it is an error that leaves the first
// endpoint serving, and after Shutdown nothing listens on its address.
func TestEnableLoopbackTwice(t *testing.T) {
	e := New(1)
	if err := e.EnableLoopback(); err != nil {
		t.Fatal(err)
	}
	first := e.net
	addr := first.ln.Addr().String()
	if err := e.EnableLoopback(); err == nil {
		t.Fatal("a second EnableLoopback succeeded")
	}
	if e.net != first {
		t.Fatal("the failed second EnableLoopback replaced the endpoint")
	}
	for i := 0; i < 3; i++ {
		if on, err := e.NetRoundTrip(); !on || err != nil {
			t.Fatalf("round trip %d over the first endpoint = %v, %v", i, on, err)
		}
	}
	if got := first.trips.Load(); got != 3 {
		t.Fatalf("counted %d round trips, want 3", got)
	}
	e.Shutdown()
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after Shutdown", addr)
	}
	first.mu.Lock()
	pooled := len(first.conns)
	first.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d pooled connections survived Shutdown", pooled)
	}
}

// TestLoopbackRoundTripAllocatesNothing: a round trip over a pooled
// connection sends and receives the connection's own frame. A frame on
// NetRoundTrip's stack escaped through net.Conn.Write, so every loopback
// Call allocated 64 bytes.
func TestLoopbackRoundTripAllocatesNothing(t *testing.T) {
	e := New(1)
	if err := e.EnableLoopback(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if on, err := e.NetRoundTrip(); !on || err != nil { // dials the pooled connection
		t.Fatalf("first round trip = %v, %v", on, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.NetRoundTrip(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a round trip over a pooled connection allocates %v times, want 0", allocs)
	}
}
