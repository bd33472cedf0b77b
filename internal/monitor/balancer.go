package monitor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cudele/internal/obs"
	"cudele/internal/runtime"
)

// The elastic balancer: a monitor proc that samples the decayed heat map
// every Interval and, when the rank-load imbalance factor crosses the
// threshold, exports subtree cells from the hottest rank to the coldest
// (CephFS's CPU-threshold balancer shape, driven by our decayed-counter
// load signal instead of instantaneous CPU). A single cell so hot that
// no migration can help is fragmented across the coldest ranks instead.
//
// The balancer is entirely opt-in: nothing constructs one unless
// StartBalancer is called, so calibrated baselines never see it.

// BalancerConfig tunes one balancer run. Zero values select defaults.
type BalancerConfig struct {
	// Interval between heat samples. Default 1s.
	Interval time.Duration
	// Rounds bounds the proc's lifetime so a simulated run drains; each
	// round is one sample plus at most MaxMoves actions. Default 8.
	Rounds int
	// Threshold is the imbalance factor (max rank load / mean rank load)
	// above which the balancer acts. Default 1.25.
	Threshold float64
	// MinGap is the minimum hot-cold load difference worth acting on;
	// below it migration overhead outweighs the spread. Default 1.
	MinGap float64
	// MaxMoves caps migrations per round. Default 1.
	MaxMoves int
	// SplitFactor: when the hottest rank's load is concentrated in one
	// cell beyond this fraction and no movable cell fits, the cell's
	// directory is fragmented instead. Default 0.8.
	SplitFactor float64
	// SplitWays is the fragment fan-out of such a split. Default 2.
	SplitWays int
}

func (c *BalancerConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
	if c.Threshold <= 0 {
		c.Threshold = 1.25
	}
	if c.MinGap <= 0 {
		c.MinGap = 1
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = 1
	}
	if c.SplitFactor <= 0 {
		c.SplitFactor = 0.8
	}
	if c.SplitWays < 2 {
		c.SplitWays = 2
	}
}

// BalanceSample is one periodic observation of the cluster's balance.
type BalanceSample struct {
	TimeMS    float64   `json:"time_ms"`
	Imbalance float64   `json:"imbalance"`
	Loads     []float64 `json:"loads"` // decayed load per rank, index = rank
}

// BalanceEvent is one action the balancer took.
type BalanceEvent struct {
	TimeMS    float64 `json:"time_ms"`
	Kind      string  `json:"kind"` // "migrate" or "split"
	Path      string  `json:"path"`
	From      int     `json:"from"`
	To        int     `json:"to"` // first target rank of a split
	Imbalance float64 `json:"imbalance"`
	Err       string  `json:"err,omitempty"`
}

// Balancer is a running (or finished) balancer proc.
type Balancer struct {
	mon     *Monitor
	heat    *obs.Heat
	cfg     BalancerConfig
	done    runtime.Signal
	samples []BalanceSample
	events  []BalanceEvent
	split   map[string]bool // dirs already fragmented this run
}

// StartBalancer spawns the balancer proc consuming the given heat
// accountant. It runs cfg.Rounds rounds and stops; Wait blocks until
// then. The heat accountant must be the one the cluster records into
// (cudele.EnableHeat installs it).
func (m *Monitor) StartBalancer(h *obs.Heat, cfg BalancerConfig) *Balancer {
	cfg.defaults()
	b := &Balancer{
		mon: m, heat: h, cfg: cfg,
		done:  m.eng.NewSignal(),
		split: make(map[string]bool),
	}
	m.dom.Spawn("monitor.balancer", b.run)
	return b
}

// Wait blocks until the balancer's rounds are exhausted.
func (b *Balancer) Wait(p runtime.Task) { b.done.Wait(p) }

// Samples returns the per-round balance observations, oldest first.
func (b *Balancer) Samples() []BalanceSample { return b.samples }

// Events returns the actions taken, oldest first.
func (b *Balancer) Events() []BalanceEvent { return b.events }

func (b *Balancer) run(p runtime.Task) {
	defer b.done.Fire(nil)
	for round := 0; round < b.cfg.Rounds; round++ {
		p.Sleep(b.cfg.Interval)
		cells := b.heat.Snapshot(int64(p.Now()))
		loads := make([]float64, b.mon.cl.Ranks())
		for _, c := range cells {
			if c.Rank >= 0 && c.Rank < len(loads) {
				loads[c.Rank] += c.Load
			}
		}
		rep := obs.NewReport(cells)
		imb := imbalanceOver(loads)
		b.samples = append(b.samples, BalanceSample{
			TimeMS: float64(p.Now()) / 1e6, Imbalance: imb,
			Loads: append([]float64(nil), loads...),
		})
		// NewReport's imbalance only sees ranks with cells; ours counts
		// every cluster rank (an idle rank is the best migration target,
		// not invisible). Use the wider of the two to decide.
		if rep.Imbalance > imb {
			imb = rep.Imbalance
		}
		if imb < b.cfg.Threshold {
			continue
		}
		b.balance(p, cells, loads, imb)
	}
}

// imbalanceOver is max/mean over a dense per-rank load vector, counting
// idle ranks (unlike obs.NewReport, which only sees ranks with cells).
func imbalanceOver(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	max, total := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	return max / (total / float64(len(loads)))
}

// movable reports whether a heat cell names a subtree the balancer may
// export: a real placed subtree (not the root catch-all) and not a
// directory fragment (fragments are already spread by hash).
func movable(subtree string) bool {
	return subtree != "" && subtree != "/" && !strings.Contains(subtree, "#")
}

// balance performs up to MaxMoves exports from the hottest rank to the
// coldest; when one cell dominates the hot rank and cannot move without
// overshooting, its directory is fragmented across the coldest ranks.
func (b *Balancer) balance(p runtime.Task, cells []obs.HeatCell, loads []float64, imb float64) {
	for move := 0; move < b.cfg.MaxMoves; move++ {
		hot, cold := 0, 0
		for r, l := range loads {
			if l > loads[hot] {
				hot = r
			}
			if l < loads[cold] {
				cold = r
			}
		}
		gap := loads[hot] - loads[cold]
		if gap < b.cfg.MinGap {
			return
		}
		// The best export shrinks the gap without inverting it: the
		// largest movable cell on the hot rank with load ≤ gap/2.
		var pick *obs.HeatCell
		var dom *obs.HeatCell // hottest movable cell regardless of fit
		for i := range cells {
			c := &cells[i]
			if c.Rank != hot || !movable(c.Subtree) {
				continue
			}
			// A migrated-away subtree's old cell lingers while it
			// decays; only cells matching current ownership are
			// candidates.
			if b.mon.cl.Table().RankFor(c.Subtree) != c.Rank {
				continue
			}
			if dom == nil || c.Load > dom.Load {
				dom = c
			}
			if c.Load <= gap/2 && (pick == nil || c.Load > pick.Load) {
				pick = c
			}
		}
		if pick != nil && pick.Load > 0 {
			err := b.mon.Migrate(p, pick.Subtree, cold)
			ev := BalanceEvent{
				TimeMS: float64(p.Now()) / 1e6, Kind: "migrate",
				Path: pick.Subtree, From: hot, To: cold, Imbalance: imb,
			}
			if err != nil {
				ev.Err = err.Error()
			}
			b.events = append(b.events, ev)
			if err != nil {
				return // busy subtree; try again next round
			}
			loads[hot] -= pick.Load
			loads[cold] += pick.Load
			pick.Rank = cold
			continue
		}
		// Nothing fits: if one cell dominates the hot rank, fragment it.
		if dom == nil || loads[hot] == 0 || dom.Load/loads[hot] < b.cfg.SplitFactor ||
			b.split[dom.Subtree] {
			return
		}
		targets := coldestRanks(loads, b.cfg.SplitWays)
		err := b.mon.SplitDir(p, dom.Subtree, targets)
		ev := BalanceEvent{
			TimeMS: float64(p.Now()) / 1e6, Kind: "split",
			Path: dom.Subtree, From: hot, To: targets[0], Imbalance: imb,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		b.events = append(b.events, ev)
		if err == nil {
			b.split[dom.Subtree] = true
			share := dom.Load / float64(len(targets))
			loads[hot] -= dom.Load
			for _, t := range targets {
				loads[t] += share
			}
		}
		return
	}
}

// coldestRanks returns the n coldest rank indices, coldest first.
func coldestRanks(loads []float64, n int) []int {
	idx := make([]int, len(loads))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return loads[idx[i]] < loads[idx[j]] })
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// String renders a convergence table for operators and bench output.
func (b *Balancer) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "balancer: %d sample(s), %d action(s)\n", len(b.samples), len(b.events))
	for _, s := range b.samples {
		fmt.Fprintf(&sb, "  t=%8.1fms imbalance=%.3f loads=%v\n", s.TimeMS, s.Imbalance, s.Loads)
	}
	for _, e := range b.events {
		fmt.Fprintf(&sb, "  t=%8.1fms %s %s rank %d -> %d (imb %.3f) %s\n",
			e.TimeMS, e.Kind, e.Path, e.From, e.To, e.Imbalance, e.Err)
	}
	return sb.String()
}
