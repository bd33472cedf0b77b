package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
)

// Parallel calls fn for every index in [0, n) on GOMAXPROCS goroutines
// (fewer when n is smaller) and returns the results in index order. It is
// the host-level worker pool under every grid of independent runs — an
// experiment's simulations, the chaos schedules — each of which owns its
// engine, so the results are the same for any GOMAXPROCS; in-run
// parallelism would not be (a sim.Engine is single-threaded by
// construction).
func Parallel[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(goruntime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
