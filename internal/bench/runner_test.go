package bench

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestRunGridOrder checks that results come back indexed by grid position
// regardless of worker count or completion order.
func TestRunGridOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 16} {
		opts := Options{Workers: workers}
		out, err := runGrid(opts, 20, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
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
	for _, workers := range []int{1, 2, 8} {
		_, err := runGrid(Options{Workers: workers}, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 7:
				return 0, errB
			}
			return i, nil
		})
		if err != errA {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errA)
		}
	}
}

// TestRunGridConcurrency checks the pool really runs up to `workers` runs
// at once (and no more).
func TestRunGridConcurrency(t *testing.T) {
	const workers = 4
	var mu sync.Mutex
	active, peak := 0, 0
	gate := make(chan struct{})
	var once sync.Once
	_, err := runGrid(Options{Workers: workers}, 8, func(i int) (int, error) {
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

// equivalenceIDs is the fast subset of experiments the parallel/sequential
// equivalence test renders. Together they cover the three workload
// shapes (runCreateJob with and without a sampler, placedStorm,
// decoupledStorm) and the scripted single-client runs of fig5 and fig6c.
var equivalenceIDs = []string{"fig3a", "fig3c", "fig5", "fig6a", "fig6c", "multimds", "ext-latency"}

// TestParallelEquivalence is the tentpole guarantee: rendered tables are
// byte-identical whether a grid runs sequentially (-parallel 1) or on any
// worker pool, because each run owns its engine and seeds are fixed by
// grid position.
func TestParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is slow")
	}
	workerCounts := []int{1, 2, runtime.NumCPU() + 1}
	for _, id := range equivalenceIDs {
		var want string
		for _, w := range workerCounts {
			res, err := Run(id, Options{Scale: 0.01, Seed: 1, Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, w, err)
			}
			got := res.Render()
			if w == workerCounts[0] {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: table differs between workers=%d and workers=%d:\n--- workers=%d ---\n%s\n--- workers=%d ---\n%s",
					id, workerCounts[0], w, workerCounts[0], want, w, got)
			}
		}
	}
}

// TestWorkerCount pins the Options.Workers resolution rules.
func TestWorkerCount(t *testing.T) {
	if got := (Options{Workers: 3}).workerCount(); got != 3 {
		t.Fatalf("Workers=3 resolved to %d", got)
	}
	if got := (Options{}).workerCount(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers=0 resolved to %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
}

// BenchmarkGridSequential / BenchmarkGridParallel measure the wall-clock
// effect of the worker pool on a representative grid (fig6a at small
// scale). On a multi-core machine the parallel variant should approach
// sequential/NumCPU; on a single core they tie.
func benchGrid(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run("fig6a", Options{Scale: 0.01, Seed: 1, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridSequential(b *testing.B) { benchGrid(b, 1) }
func BenchmarkGridParallel(b *testing.B)   { benchGrid(b, runtime.NumCPU()) }

// BenchmarkExperiments times each registered experiment end to end at a
// small scale — the wall-clock figures the -json flag reports.
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
