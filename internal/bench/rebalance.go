package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cudele"
)

func init() {
	register("rebalance", "heat-driven balancer convergence from a fully skewed placement", Rebalance)
}

// rebalanceRanks is the cluster size; rebalanceSubtrees client subtrees
// all start on rank 0 — the worst-case placement the balancer must fix
// while the create storm keeps running.
const (
	rebalanceRanks    = 4
	rebalanceSubtrees = 8
)

// rebalanceOut is one run's measurements: total seconds, per-rank
// request counts, the final heat imbalance, and the balancer's own
// convergence record (empty for the frozen control run).
type rebalanceOut struct {
	total      float64
	requests   []uint64
	imbalance  float64
	perRank    []int // final subtree count per rank
	migrations int   // committed subtree migrations
	balancer   *cudele.Balancer
}

// rebalanceRun drives rebalanceSubtrees clients create-storming private
// subtrees that all start on rank 0 of a rebalanceRanks-rank cluster.
// With balance set, the heat-driven balancer runs concurrently and
// exports subtrees off the hot rank while the clients keep creating —
// in-flight requests bounce with a redirect and retry transparently.
// Without it, the run is the frozen control the convergence is judged
// against.
func rebalanceRun(opts Options, spec runSpec, perClient int, balance bool) (rebalanceOut, error) {
	const interval = 40 * time.Millisecond
	storm := placedStorm{placement: make([]int, rebalanceSubtrees), perClient: perClient}
	if balance {
		storm.balancer = &cudele.BalancerConfig{Interval: interval, Rounds: 12}
	}
	spec.ranks, spec.halfLife = rebalanceRanks, 3*interval
	return runSession(opts, spec, func(s *session) (rebalanceOut, error) {
		total, bal, err := storm.run(s)
		if err != nil {
			return rebalanceOut{}, err
		}
		cl := s.cl
		out := rebalanceOut{total: total, balancer: bal}
		// The frozen control's idle ranks 1-3 must count as imbalance.
		out.imbalance = cl.HeatReport().Imbalance
		out.requests = rankRequests(cl, rebalanceRanks)
		out.perRank = make([]int, rebalanceRanks)
		for _, st := range cl.Subtrees() {
			if strings.HasPrefix(st.Path, "/job") {
				out.perRank[cl.Metadata().Table().RankFor(st.Path)]++
			}
		}
		out.migrations = cl.Metadata().Migrations()
		return out, nil
	})
}

// Rebalance is the elastic-metadata experiment: every subtree starts on
// rank 0 and the heat-driven balancer must spread them across the
// cluster while the create storm runs, converging the rank load within
// 1.5x of even. The table is the balancer's own convergence record (one
// row per sampling round); the frozen control run shows what the same
// storm looks like with the balancer off.
func Rebalance(opts Options) (*Result, error) {
	perClient := opts.scaled(20_000, 480)
	outs, err := runGrid(opts, "rebalance", 2, func(i int, spec runSpec) (rebalanceOut, error) {
		return rebalanceRun(opts, spec, perClient, i == 0)
	})
	if err != nil {
		return nil, err
	}
	bal, frozen := outs[0], outs[1]

	r := &Result{
		ID: "rebalance",
		Title: fmt.Sprintf("heat-driven rebalancing: %d clients x %d creates, all subtrees placed on rank 0 of %d",
			rebalanceSubtrees, perClient, rebalanceRanks),
		Columns: []string{"round", "t (ms)", "imbalance", "rank loads", "moves"},
	}
	moves := 0
	samples := bal.balancer.Samples()
	events := bal.balancer.Events()
	evIdx := 0
	for i, s := range samples {
		// Migrations run between a sample and the next; the moves
		// column is cumulative successful migrations up to each row.
		next := math.Inf(1)
		if i+1 < len(samples) {
			next = samples[i+1].TimeMS
		}
		for evIdx < len(events) && events[evIdx].TimeMS < next {
			if events[evIdx].Err == "" {
				moves++
			}
			evIdx++
		}
		loads := make([]string, len(s.Loads))
		for ri, l := range s.Loads {
			loads[ri] = f0(l)
		}
		r.AddRow(fmt.Sprintf("%d", i+1), f1(s.TimeMS), f2x(s.Imbalance),
			strings.Join(loads, "/"), fmt.Sprintf("%d", moves))
	}
	final := samples[len(samples)-1].Imbalance
	dist := make([]string, rebalanceRanks)
	for i, n := range bal.perRank {
		dist[i] = fmt.Sprintf("%d", n)
	}
	r.Notef("final imbalance %s (target < 1.50x of even); the frozen control ends at %s with every subtree still on rank 0",
		f2x(final), f2x(frozen.imbalance))
	r.Notef("%d subtree migrations committed; final subtrees per rank: %s (from 8/0/0/0)",
		bal.migrations, strings.Join(dist, "/"))
	r.Notef("balanced run %.2fs vs frozen %.2fs virtual: spreading the subtrees lets four ranks serve the storm the control funnels through one",
		bal.total, frozen.total)
	return r, nil
}
