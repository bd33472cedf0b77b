package bench

import (
	"fmt"
	"strings"
	"time"

	"cudele"
	"cudele/internal/obs"
)

func init() {
	register("heatskew", "per-rank heat imbalance under a skewed create storm", HeatSkew)
}

// heatSkewPlacement pins each client's private subtree to a rank: rank 0
// owns five of the eight subtrees, the other three ranks one each — the
// deliberately skewed placement whose imbalance the heat map must expose.
var heatSkewPlacement = []int{0, 0, 0, 0, 0, 1, 2, 3}

// heatSkewRanks is the cluster size (max placement rank + 1).
const heatSkewRanks = 4

// heatSkewOut is one run's measurements: total seconds, per-rank request
// counts from the MDS metrics (the ground truth), the decayed heat
// report (the live signal the balancer would consume), and — when
// sampling is on — the imbalance factor's trajectory over the run.
type heatSkewOut struct {
	total    float64
	requests []uint64
	report   obs.HeatReport
	samples  []heatSample
}

// heatSample is one periodic observation of the rank-load imbalance.
type heatSample struct {
	sec float64 // virtual time of the observation
	imb float64 // max/mean rank load at that instant
}

// heatSkewRun drives len(heatSkewPlacement) clients, each create-storming
// its private subtree pinned per heatSkewPlacement, with heat accounting
// on. The half-life is set long relative to the run so decay barely
// discounts early operations and the heat shares line up with the raw
// request shares — the cross-check the table reports.
//
// A positive sampleEvery additionally runs a sampler proc recording the
// imbalance factor at that period, so the table can show the skew
// building as the hot rank's backlog outlives the cold ranks'. The
// sampler mutates shared state without locks, so it is sim-only; real
// runs pass 0. The spec names and seeds the run and sets its backend;
// the ranks and the half-life are the experiment's.
func heatSkewRun(opts Options, spec runSpec, perClient int, sampleEvery time.Duration) (heatSkewOut, error) {
	spec.ranks = heatSkewRanks
	spec.halfLife = 10 * time.Minute
	var out heatSkewOut
	storm := placedStorm{placement: heatSkewPlacement, perClient: perClient}
	if sampleEvery > 0 {
		storm.sampler = func(sp cudele.Proc, cl *cudele.Cluster, done func() bool) {
			for {
				sp.Sleep(sampleEvery)
				out.samples = append(out.samples, heatSample{
					sec: sp.Now().Seconds(), imb: cl.HeatReport().Imbalance,
				})
				if done() {
					return
				}
			}
		}
	}
	return runSession(opts, spec, func(s *session) (heatSkewOut, error) {
		var err error
		out.total, _, err = storm.run(s)
		out.report = s.cl.HeatReport()
		out.requests = rankRequests(s.cl, heatSkewRanks)
		return out, err
	})
}

// subtreesOnRank counts how many placed subtrees heatSkewPlacement pins
// to rank r.
func subtreesOnRank(r int) int {
	n := 0
	for _, pr := range heatSkewPlacement {
		if pr == r {
			n++
		}
	}
	return n
}

// HeatSkew is the heat-accounting experiment: a create storm over a
// deliberately skewed subtree placement, with the per-rank heat shares
// read off the accountant next to the raw request shares they must
// track. The imbalance factor (max/mean rank load) is the number the
// ROADMAP's future dynamic balancer would act on; "vs even" shows each
// rank's load against a perfectly balanced placement.
func HeatSkew(opts Options) (*Result, error) {
	perClient := opts.scaled(20_000, 200)
	// The run length scales with perClient (rank 0's serial backlog
	// dominates), so a per-create sampling period keeps the trajectory at
	// roughly ten points at any scale.
	sampleEvery := time.Duration(perClient) * 200 * time.Microsecond
	outs, err := runGrid(opts, "heatskew", 1, func(_ int, spec runSpec) (heatSkewOut, error) {
		return heatSkewRun(opts, spec, perClient, sampleEvery)
	})
	if err != nil {
		return nil, err
	}
	out := outs[0]

	r := &Result{
		ID: "heatskew",
		Title: fmt.Sprintf("per-rank heat under a skewed create storm: %d clients x %d creates, subtrees placed %v",
			len(heatSkewPlacement), perClient, heatSkewPlacement),
		Columns: []string{"rank", "subtrees", "requests", "req share", "heat load", "heat share", "vs even"},
	}
	addHeatRows(r, out)
	r.Notef("heat imbalance (max/mean rank load): %s — the signal the heat-driven balancer acts on (see the rebalance experiment)", f2x(out.report.Imbalance))
	if len(out.samples) > 0 {
		points := make([]string, len(out.samples))
		for i, s := range out.samples {
			points[i] = fmt.Sprintf("%.2fs %s", s.sec, f2x(s.imb))
		}
		r.Notef("imbalance over time: %s — rank 0 serves five concurrent client streams from the start, so the skew is visible by the first sample and holds for the whole storm",
			strings.Join(points, ", "))
	}
	r.Notef("runtime %.2fs; heat shares track raw request shares because the decay half-life dwarfs the run", out.total)
	return r, nil
}

// addHeatRows renders one run's per-rank table rows.
func addHeatRows(r *Result, out heatSkewOut) {
	var totalReq uint64
	for _, n := range out.requests {
		totalReq += n
	}
	loads := make([]float64, heatSkewRanks)
	shares := make([]float64, heatSkewRanks)
	for _, rl := range out.report.Ranks {
		if rl.Rank < heatSkewRanks {
			loads[rl.Rank] = rl.Load
			shares[rl.Rank] = rl.Share
		}
	}
	even := 1.0 / float64(heatSkewRanks)
	for rank := 0; rank < heatSkewRanks; rank++ {
		reqShare := 0.0
		if totalReq > 0 {
			reqShare = float64(out.requests[rank]) / float64(totalReq)
		}
		r.AddRow(fmt.Sprintf("%d", rank), fmt.Sprintf("%d", subtreesOnRank(rank)),
			fmt.Sprintf("%d", out.requests[rank]), pct(reqShare),
			f0(loads[rank]), pct(shares[rank]), f2x(shares[rank]/even))
	}
}

// heatSkewReal runs the skewed create storm on both backends, one after
// the other: the sim run (run000) is the prediction, the real run
// (run001) the measurement.
func heatSkewReal(opts Options) (*Result, error) {
	perClient := opts.scaled(20_000, 200)
	sim, err := heatSkewRun(opts, opts.run("heatskew-real", 0), perClient, 0)
	if err != nil {
		return nil, err
	}
	spec := opts.run("heatskew-real", 1)
	spec.backend = cudele.BackendReal
	real, err := heatSkewRun(opts, spec, perClient, 0)
	if err != nil {
		return nil, err
	}

	r := &Result{
		ID: "heatskew-real",
		Title: fmt.Sprintf("heatskew on the real backend: %d clients x %d creates, subtrees placed %v",
			len(heatSkewPlacement), perClient, heatSkewPlacement),
		Columns: []string{"rank", "subtrees", "sim req share", "sim heat share", "real req share", "real heat share"},
	}
	simShares := rankShares(sim.report)
	realShares := rankShares(real.report)
	var simTot, realTot uint64
	for i := 0; i < heatSkewRanks; i++ {
		simTot += sim.requests[i]
		realTot += real.requests[i]
	}
	for rank := 0; rank < heatSkewRanks; rank++ {
		r.AddRow(fmt.Sprintf("%d", rank), fmt.Sprintf("%d", subtreesOnRank(rank)),
			pct(share(sim.requests[rank], simTot)), pct(simShares[rank]),
			pct(share(real.requests[rank], realTot)), pct(realShares[rank]))
	}
	r.Notef("heat imbalance: sim %s, real %s (max/mean rank load)", f2x(sim.report.Imbalance), f2x(real.report.Imbalance))
	r.Notef("sim %.2fs virtual, real %.2fs wall", sim.total, real.total)
	return r, nil
}

// rankShares indexes a report's per-rank shares by rank number.
func rankShares(rep obs.HeatReport) []float64 {
	out := make([]float64, heatSkewRanks)
	for _, rl := range rep.Ranks {
		if rl.Rank < heatSkewRanks {
			out[rl.Rank] = rl.Share
		}
	}
	return out
}

// share is n/total, 0 when total is 0.
func share(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}
