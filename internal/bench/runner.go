package bench

import (
	"fmt"

	"cudele/internal/runtime"
)

// This file is the run scheduler. Every experiment is a grid of fully
// independent deterministic simulations (each run is one session: its own
// cluster and sim.Engine from an explicit seed, see session.go), so
// cross-run parallelism cannot perturb any simulated result: runGrid
// executes the grid on runtime.Parallel's pool, sized by GOMAXPROCS, and
// reassembles results in grid order, making rendered tables
// byte-identical for every GOMAXPROCS.

// run is the one naming rule: grid point i of experiment id is the run
// "<id>/run%03d", seeded with the experiment's seed. Names are stable —
// the metrics dump labels every series with one, and a dashboard or a
// diff of two dumps keys on them.
func (o Options) run(id string, i int) runSpec {
	return runSpec{name: fmt.Sprintf("%s/run%03d", id, i), seed: o.Seed}
}

// runGrid executes n independent runs of experiment id on the worker pool,
// handing grid point i its named, seeded spec, and returns their results
// indexed by grid position. The first error in grid order wins, so error
// reporting is deterministic too.
func runGrid[T any](opts Options, id string, n int, cell func(i int, spec runSpec) (T, error)) ([]T, error) {
	errs := make([]error, n)
	out := runtime.Parallel(n, func(i int) T {
		v, err := cell(i, opts.run(id, i))
		errs[i] = err
		return v
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
