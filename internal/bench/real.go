package bench

import (
	"fmt"
	"time"

	"cudele"
)

// This file registers the real-backend tables, fig3a-real and
// heatskew-real (heatskew.go). fig3a-real is the same create-heavy
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

func init() {
	register("fig3a-real", "fig3a on the real backend: sim-predicted vs wall-clock-measured job time", fig3aReal)
	register("heatskew-real", "heatskew on the real backend: sim vs real per-rank heat shares", heatSkewReal)
}

// realSuffix ends the id of every real-backend table. Its wall-clock
// columns differ run to run, so it is never a committed baseline: IDs, and
// so "all", leave it out, and it runs only when named.
const realSuffix = "-real"

// realClientCounts is the reduced x-axis for real-backend runs.
var realClientCounts = []int{1, 2, 5}

// fig3aReal runs the Fig 3a create workload on both backends and
// reports predicted vs measured seconds per grid point.
func fig3aReal(opts Options) (*Result, error) {
	// Three of Fig 3a's five journal configurations.
	configs := []fig3aConfig{fig3aConfigs[0], fig3aConfigs[1], fig3aConfigs[3]}
	jobs := fig3aJobs(opts, realClientCounts, configs)

	// Grid point i's prediction is run i, its measurement run
	// len(jobs)+i.
	job := func(i int, run runSpec) (float64, error) {
		return fig3aTime(opts, run, jobs[i], func(res *jobResult) float64 { return res.total })
	}

	// Predictions can use the worker pool (independent simulations);
	// real runs are strictly sequential.
	predicted, err := runGrid(opts, "fig3a-real", len(jobs), job)
	if err != nil {
		return nil, err
	}
	measured := make([]float64, len(jobs))
	wallStart := time.Now()
	for i := range jobs {
		run := opts.run("fig3a-real", len(jobs)+i)
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
			jobs[0].perClient),
		Columns: []string{"clients", "config", "sim predicted (s)", "real measured (s)", "real/sim"},
	}
	for i, jc := range jobs {
		ratio := 0.0
		if predicted[i] > 0 {
			ratio = measured[i] / predicted[i]
		}
		r.AddRow(fmt.Sprintf("%d", jc.clients), configs[i%len(configs)].label,
			fmt.Sprintf("%.3f", predicted[i]), fmt.Sprintf("%.3f", measured[i]), f2x(ratio))
	}
	r.Notef("identical protocol work per cell; sim charges calibrated device costs in virtual time, real pays actual sleeps, goroutine scheduling and fsync")
	r.Notef("real runs executed sequentially in %.1fs wall; real-backend timing varies run to run (the sim column is the reproducible one)", realWall.Seconds())
	return r, nil
}
