package bench

import (
	"runtime"
	"sync"
)

// This file is the parallel run scheduler. Every experiment is a grid of
// fully independent deterministic simulations (each run is one session:
// its own cluster and sim.Engine from an explicit seed, see session.go), so cross-run parallelism
// cannot perturb any simulated result: runGrid executes the grid on a
// worker pool and reassembles results in grid order, making rendered
// tables byte-identical for every worker count. In-run parallelism would
// NOT be safe — a sim.Engine is single-threaded by construction — which
// is why the unit of scheduling is the whole run.

// workerCount resolves Options.Workers: 0 (the default) uses GOMAXPROCS,
// 1 forces sequential execution (-parallel 1), n > len(grid) is clamped
// by runGrid.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runGrid executes n independent runs across the options' worker pool and
// returns their results indexed by grid position. The first error in grid
// order wins, so error reporting is deterministic too.
func runGrid[T any](opts Options, n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := opts.workerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = run(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i], errs[i] = run(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
