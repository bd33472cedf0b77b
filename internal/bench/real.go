package bench

import (
	"fmt"
	"time"

	"cudele"
)

// This file is the real-backend bench path: the same create-heavy
// workload as Fig 3a executed twice per grid point — once on the
// simulator (the prediction) and once on real goroutines and wall
// clocks (the measurement) — rendered side by side. The comparison is
// honest about what the two numbers mean: the protocol work (RPCs,
// journal events, capability churn) is identical; the simulator charges
// calibrated device costs in virtual time while the real backend pays
// actual sleeps, goroutine scheduling, and real fsyncs to the run's own
// object log. Real runs execute strictly sequentially so one run's load
// never distorts another's wall clock, and the grid is reduced (three
// client counts, three journal configs) because real time is paid for
// real.

// realClientCounts is the reduced x-axis for real-backend runs.
var realClientCounts = []int{1, 2, 5}

// RealIDs lists the experiments RunReal supports.
func RealIDs() []string { return []string{"fig3a", "heatskew"} }

// RunReal executes an experiment on the real backend, side by side with
// its simulated prediction. fig3a is the paper's central scaling figure
// and the one whose workload shape (create storms under journal
// configurations) exercises every runtime seam — transport, journal
// streaming, object store, client caps. heatskew is the observability
// workload: a skewed create storm whose heat shares must track its
// request shares on both backends.
func RunReal(id string, opts Options) (*Result, error) {
	switch id {
	case "fig3a":
		return fig3aReal(opts)
	case "heatskew":
		return heatSkewReal(opts)
	}
	return nil, fmt.Errorf("bench: experiment %q has no real-backend mode (supported: %v)", id, RealIDs())
}

// fig3aReal runs the Fig 3a create workload on both backends and
// reports predicted vs measured seconds per grid point.
func fig3aReal(opts Options) (*Result, error) {
	perClient := opts.scaled(100_000, 200)
	segEvents := opts.scaled(1024, 64)

	// Three of Fig 3a's five journal configurations.
	configs := []fig3aConfig{fig3aConfigs[0], fig3aConfigs[1], fig3aConfigs[3]}
	type spec struct {
		clients int
		cfg     fig3aConfig
	}
	var specs []spec
	for _, n := range realClientCounts {
		for _, cfg := range configs {
			specs = append(specs, spec{clients: n, cfg: cfg})
		}
	}

	// Grid point i's prediction is run i, its measurement run
	// len(specs)+i.
	job := func(i int, run runSpec) (float64, error) {
		sp := specs[i]
		res, err := runCreateJob(opts, run, jobConfig{
			clients: sp.clients, perClient: perClient,
			journal: sp.cfg.journal, dispatch: sp.cfg.dispatch, segEvents: segEvents,
		})
		if err != nil {
			return 0, err
		}
		return res.total, nil
	}

	// Predictions can use the worker pool (independent simulations);
	// real runs are strictly sequential.
	predicted, err := runGrid(opts, "fig3a-real", len(specs), job)
	if err != nil {
		return nil, err
	}
	measured := make([]float64, len(specs))
	wallStart := time.Now()
	for i := range specs {
		run := opts.run("fig3a-real", len(specs)+i)
		run.backend = cudele.BackendReal
		m, err := job(i, run)
		if err != nil {
			return nil, err
		}
		measured[i] = m
	}
	realWall := time.Since(wallStart)

	r := &Result{
		ID: "fig3a-real",
		Title: fmt.Sprintf("fig3a on the real backend: sim-predicted vs wall-clock-measured job time, %d creates/client",
			perClient),
		Columns: []string{"clients", "config", "sim predicted (s)", "real measured (s)", "real/sim"},
	}
	for i, sp := range specs {
		ratio := 0.0
		if predicted[i] > 0 {
			ratio = measured[i] / predicted[i]
		}
		r.AddRow(fmt.Sprintf("%d", sp.clients), sp.cfg.label,
			fmt.Sprintf("%.3f", predicted[i]), fmt.Sprintf("%.3f", measured[i]), f2x(ratio))
	}
	r.Notef("identical protocol work per cell; sim charges calibrated device costs in virtual time, real pays actual sleeps, goroutine scheduling and fsync")
	r.Notef("real runs executed sequentially in %.1fs wall; real-backend timing varies run to run (the sim column is the reproducible one)", realWall.Seconds())
	return r, nil
}
