package bench

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"
)

// withProcs sets GOMAXPROCS, which sizes the grid's worker pool, for the
// rest of the test.
func withProcs(tb testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestRunGridOrder checks that results come back indexed by grid position
// at any GOMAXPROCS, although later points finish first, and that grid
// point i is the run "<id>/run%03d" with the experiment's seed.
func TestRunGridOrder(t *testing.T) {
	const n = 20
	for _, procs := range []int{1, 2, 3, 16} {
		withProcs(t, procs)
		out, err := runGrid(Options{Seed: 7}, "t", n, func(i int, spec runSpec) (int, error) {
			if want := fmt.Sprintf("t/run%03d", i); spec.name != want || spec.seed != 7 {
				return 0, fmt.Errorf("grid point %d got run %q seed %d, want %q seed 7", i, spec.name, spec.seed, want)
			}
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("GOMAXPROCS=%d: out[%d] = %d, want %d", procs, i, v, i*i)
			}
		}
	}
}

// TestRunGridFirstErrorWins checks that the reported error is the one at
// the lowest grid index, independent of scheduling, so error output is
// deterministic too.
func TestRunGridFirstErrorWins(t *testing.T) {
	errA := errors.New("err at 3")
	errB := errors.New("err at 7")
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs)
		_, err := runGrid(Options{}, "t", 10, func(i int, _ runSpec) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 7:
				return 0, errB
			}
			return i, nil
		})
		if err != errA {
			t.Fatalf("GOMAXPROCS=%d: got %v, want %v", procs, err, errA)
		}
	}
}

// TestRunGridConcurrency checks the pool really runs GOMAXPROCS runs at
// once (and no more).
func TestRunGridConcurrency(t *testing.T) {
	const workers = 4
	withProcs(t, workers)
	var mu sync.Mutex
	active, peak := 0, 0
	gate := make(chan struct{})
	var once sync.Once
	_, err := runGrid(Options{}, "t", 8, func(i int, _ runSpec) (int, error) {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		if active == workers {
			once.Do(func() { close(gate) })
		}
		mu.Unlock()
		<-gate // all workers must be in flight before any run finishes
		mu.Lock()
		active--
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != workers {
		t.Fatalf("peak concurrency = %d, want %d", peak, workers)
	}
}

// TestRunNamesFollowTheGrid sweeps every simulated experiment with a
// sink: the grid names every run "<id>/run%03d", and no name repeats — a
// repeated name would merge two runs' series in the metrics dump and
// replace one run's trace with the other's.
func TestRunNamesFollowTheGrid(t *testing.T) {
	for _, id := range IDs() {
		opts := tinyOpts
		opts.Sink = NewSink(false)
		if _, err := Run(id, opts); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		valid := regexp.MustCompile("^" + regexp.QuoteMeta(id) + "/run[0-9]{3}$")
		seen := map[string]bool{}
		for _, name := range opts.Sink.runs {
			if !valid.MatchString(name) {
				t.Errorf("%s: run %q is not named <id>/run%%03d", id, name)
			}
			if seen[name] {
				t.Errorf("%s: run %q registered twice", id, name)
			}
			seen[name] = true
		}
	}
}

// equivalenceIDs is the fast subset of experiments the parallel/sequential
// equivalence test renders. Together they cover the three workload
// shapes (runCreateJob with and without a sampler, placedStorm,
// decoupledStorm) and the scripted single-client runs of fig5 and fig6c.
var equivalenceIDs = []string{"fig3a", "fig3c", "fig5", "fig6a", "fig6c", "multimds", "ext-latency"}

// TestParallelEquivalence is the tentpole guarantee: rendered tables are
// byte-identical whether a grid runs sequentially (GOMAXPROCS=1) or on
// any worker pool, because each run owns its engine and its name and seed
// are fixed by grid position.
func TestParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	procCounts := []int{1, 2, runtime.NumCPU() + 1}
	for _, id := range equivalenceIDs {
		var want string
		for _, procs := range procCounts {
			withProcs(t, procs)
			res, err := Run(id, Options{Scale: 0.01, Seed: 1})
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", id, procs, err)
			}
			got := res.Render()
			if procs == procCounts[0] {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: table differs between GOMAXPROCS=%d and GOMAXPROCS=%d:\n--- %d ---\n%s\n--- %d ---\n%s",
					id, procCounts[0], procs, procCounts[0], want, procs, got)
			}
		}
	}
}

// BenchmarkGridSequential / BenchmarkGridParallel measure the wall-clock
// effect of the worker pool on a representative grid (fig6a at small
// scale). On a multi-core machine the parallel variant should approach
// sequential/NumCPU; on a single core they tie.
func benchGrid(b *testing.B, procs int) {
	withProcs(b, procs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run("fig6a", Options{Scale: 0.01, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridSequential(b *testing.B) { benchGrid(b, 1) }
func BenchmarkGridParallel(b *testing.B)   { benchGrid(b, runtime.NumCPU()) }

// BenchmarkExperiments times each simulated experiment end to end at a
// small scale — the wall-clock figures cudele-bench prints beside each
// table.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(id, Options{Scale: 0.01, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
