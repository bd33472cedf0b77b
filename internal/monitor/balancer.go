package monitor

import (
	"time"

	"cudele/internal/obs"
	"cudele/internal/runtime"
)

// The elastic balancer: a monitor proc that samples the decayed heat map
// every Interval and, when the rank-load imbalance factor crosses the
// threshold, exports subtree cells from the hottest rank to the coldest
// (CephFS's CPU-threshold balancer shape, driven by our decayed-counter
// load signal instead of instantaneous CPU).
//
// The balancer is entirely opt-in: nothing constructs one unless
// StartBalancer is called, so calibrated baselines never see it.

// The balancer's fixed policy. It acts when the imbalance factor (max
// rank load / mean rank load) reaches imbalanceThreshold and the hot-cold
// load difference reaches minLoadGap — below it migration overhead
// outweighs the spread — and exports at most maxMoves cells per round.
const (
	imbalanceThreshold = 1.25
	minLoadGap         = 1
	maxMoves           = 2
)

// BalancerConfig tunes one balancer run. Zero values select defaults.
type BalancerConfig struct {
	// Interval between heat samples. Default 1s.
	Interval time.Duration
	// Rounds bounds the proc's lifetime so a simulated run drains; each
	// round is one sample plus at most maxMoves actions. Default 8.
	Rounds int
}

func (c *BalancerConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
}

// BalanceSample is one periodic observation of the cluster's balance.
type BalanceSample struct {
	TimeMS    float64   `json:"time_ms"`
	Imbalance float64   `json:"imbalance"`
	Loads     []float64 `json:"loads"` // decayed load per rank, index = rank
}

// BalanceEvent is one migration the balancer attempted.
type BalanceEvent struct {
	TimeMS    float64 `json:"time_ms"`
	Path      string  `json:"path"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Imbalance float64 `json:"imbalance"`
	Err       string  `json:"err,omitempty"`
}

// Balancer is a running (or finished) balancer proc.
type Balancer struct {
	mon     *Monitor
	heat    *obs.Heat
	cfg     BalancerConfig
	samples []BalanceSample
	events  []BalanceEvent
}

// StartBalancer spawns the balancer proc consuming the given heat
// accountant. It runs cfg.Rounds rounds and stops. The heat accountant
// must be the one the cluster records into (cudele.EnableHeat installs
// it).
func (m *Monitor) StartBalancer(h *obs.Heat, cfg BalancerConfig) *Balancer {
	cfg.defaults()
	b := &Balancer{mon: m, heat: h, cfg: cfg}
	m.dom.Spawn("monitor.balancer", b.run)
	return b
}

// Samples returns the per-round balance observations, oldest first.
func (b *Balancer) Samples() []BalanceSample { return b.samples }

// Events returns the migrations attempted, oldest first.
func (b *Balancer) Events() []BalanceEvent { return b.events }

func (b *Balancer) run(p runtime.Task) {
	for round := 0; round < b.cfg.Rounds; round++ {
		p.Sleep(b.cfg.Interval)
		cells := b.heat.Snapshot(int64(p.Now()))
		// Every cluster rank counts: an idle rank is the best migration
		// target, not invisible.
		loads := obs.RankLoads(cells, b.mon.cl.Ranks())
		imb := obs.Imbalance(loads)
		b.samples = append(b.samples, BalanceSample{
			TimeMS: float64(p.Now()) / 1e6, Imbalance: imb,
			Loads: append([]float64(nil), loads...),
		})
		if imb < imbalanceThreshold {
			continue
		}
		b.balance(p, cells, loads, imb)
	}
}

// movable reports whether a heat cell names a subtree the balancer may
// export: a real placed subtree, not the root catch-all.
func movable(subtree string) bool {
	return subtree != "" && subtree != "/"
}

// balance performs up to maxMoves exports from the hottest rank to the
// coldest, and stops when no movable cell fits.
func (b *Balancer) balance(p runtime.Task, cells []obs.HeatCell, loads []float64, imb float64) {
	for move := 0; move < maxMoves; move++ {
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
		if gap < minLoadGap {
			return
		}
		// The best export shrinks the gap without inverting it: the
		// largest movable cell on the hot rank with load ≤ gap/2.
		var pick *obs.HeatCell
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
			if c.Load <= gap/2 && (pick == nil || c.Load > pick.Load) {
				pick = c
			}
		}
		if pick == nil || pick.Load <= 0 {
			return
		}
		err := b.mon.Migrate(p, pick.Subtree, cold)
		ev := BalanceEvent{
			TimeMS: float64(p.Now()) / 1e6, Path: pick.Subtree,
			From: hot, To: cold, Imbalance: imb,
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
	}
}
