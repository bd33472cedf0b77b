// Package obs is the live observability plane: per-subtree heat
// accounting (the load signal a dynamic balancer consumes), the CPU
// profile label plane, and the real-backend HTTP admin endpoint that
// serves heat alongside the metric registry. Events — spans and protocol
// points, and the tail a chaos post-mortem dumps — are internal/trace's.
//
// Everything here follows the codebase's observation contract: disabled
// observers are nil and cost one pointer check on the hot path, enabled
// observers read the runtime clock but never charge time, never consume
// engine randomness, and never change control flow — so a simulated run
// with heat accounting on stays byte-identical to one without (see
// cudele.TestHeatDoesNotPerturb).
package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultHalfLife is the heat decay half-life used when NewHeat is given
// a non-positive one: long enough to smooth create bursts, short enough
// that a migrated-away subtree cools within a minute.
const DefaultHalfLife = 10 * time.Second

// HeatKey identifies one heat cell: a placed subtree on a rank.
type HeatKey struct {
	Subtree string
	Rank    int
}

// heatCell is one (subtree, rank) cell's exponentially-decaying
// accumulators. Values are decayed event sums: adding x at time t and
// reading at t+halfLife yields x/2.
type heatCell struct {
	last    int64 // runtime nanoseconds of the last decay
	reads   float64
	writes  float64
	merges  float64
	bytes   float64
	waitSec float64 // queue-wait seconds, decayed like the counters
}

// decay folds the time since the cell's last update into its
// accumulators: v *= 2^(-(now-last)/halfLife).
func (c *heatCell) decay(now int64, halfLifeNS float64) {
	dt := now - c.last
	c.last = now
	if dt <= 0 {
		return
	}
	f := math.Exp2(-float64(dt) / halfLifeNS)
	c.reads *= f
	c.writes *= f
	c.merges *= f
	c.bytes *= f
	c.waitSec *= f
}

// Heat is the per-subtree, per-rank load accountant. A nil *Heat is the
// disabled accountant: every method no-ops, so record sites guard with
// one nil check and pay nothing when heat accounting is off.
//
// Timestamps are runtime nanoseconds (virtual on the simulator, wall on
// the real backend), passed as plain int64 so this package stays below
// internal/runtime in the import graph. The mutex exists for the real
// backend, where an admin scrape reads Snapshot concurrently with
// recording tasks; on the simulator it is uncontended.
type Heat struct {
	mu         sync.Mutex
	halfLifeNS float64
	cells      map[HeatKey]*heatCell
}

// NewHeat returns a heat accountant with the given decay half-life
// (non-positive means DefaultHalfLife).
func NewHeat(halfLife time.Duration) *Heat {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &Heat{
		halfLifeNS: float64(halfLife),
		cells:      make(map[HeatKey]*heatCell),
	}
}

// cell returns the (subtree, rank) cell, decayed to now, creating it on
// first touch. Caller holds h.mu.
func (h *Heat) cell(now int64, subtree string, rank int) *heatCell {
	k := HeatKey{Subtree: subtree, Rank: rank}
	c := h.cells[k]
	if c == nil {
		c = &heatCell{last: now}
		h.cells[k] = c
	}
	c.decay(now, h.halfLifeNS)
	return c
}

// RecordOp accounts one metadata RPC served by rank for the given
// subtree: a read or a write, plus the time the request waited for the
// rank's CPU. Steady-state calls are allocation-free.
func (h *Heat) RecordOp(now int64, subtree string, rank int, write bool, wait time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	c := h.cell(now, subtree, rank)
	if write {
		c.writes++
	} else {
		c.reads++
	}
	if wait > 0 {
		c.waitSec += wait.Seconds()
	}
	h.mu.Unlock()
}

// RecordMerge accounts a batch of Volatile Apply events (one-shot job or
// streamed chunk) applied by rank for the given subtree, with its
// nominal transfer bytes.
func (h *Heat) RecordMerge(now int64, subtree string, rank int, events int, bytes int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	c := h.cell(now, subtree, rank)
	c.merges += float64(events)
	if bytes > 0 {
		c.bytes += float64(bytes)
	}
	h.mu.Unlock()
}

// HeatCell is one cell of a heat snapshot, decayed to the snapshot time.
type HeatCell struct {
	Subtree     string  `json:"subtree"`
	Rank        int     `json:"rank"`
	Reads       float64 `json:"reads"`
	Writes      float64 `json:"writes"`
	Merges      float64 `json:"merges"`
	Bytes       float64 `json:"bytes"`
	WaitSeconds float64 `json:"wait_seconds"`
	Load        float64 `json:"load"` // reads + writes + merges
}

// Snapshot returns every cell decayed to now, sorted by subtree then
// rank. A nil or empty accountant returns nil.
func (h *Heat) Snapshot(now int64) []HeatCell {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	out := make([]HeatCell, 0, len(h.cells))
	for k, c := range h.cells {
		c.decay(now, h.halfLifeNS)
		out = append(out, HeatCell{
			Subtree: k.Subtree, Rank: k.Rank,
			Reads: c.reads, Writes: c.writes, Merges: c.merges,
			Bytes: c.bytes, WaitSeconds: c.waitSec,
			Load: c.reads + c.writes + c.merges,
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Subtree != out[j].Subtree {
			return out[i].Subtree < out[j].Subtree
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// RankLoad is one rank's aggregate decayed load and its share of the
// cluster total.
type RankLoad struct {
	Rank  int     `json:"rank"`
	Load  float64 `json:"load"`
	Share float64 `json:"share"`
}

// HeatReport is the /heat endpoint's document: the full cell map, the
// per-rank aggregation over every rank of the cluster, and the imbalance
// factor (max rank load over mean rank load, idle ranks counted — 1.0 is
// perfectly balanced) that the balancer acts on.
type HeatReport struct {
	Cells     []HeatCell `json:"cells"`
	Ranks     []RankLoad `json:"ranks"`
	Imbalance float64    `json:"imbalance"`
}

// RankLoads sums a snapshot's cells into a dense per-rank load vector
// over ranks 0..ranks-1, so an idle rank counts as a zero rather than
// going missing; a cell outside that range is dropped.
func RankLoads(cells []HeatCell, ranks int) []float64 {
	loads := make([]float64, ranks)
	for _, c := range cells {
		if c.Rank >= 0 && c.Rank < ranks {
			loads[c.Rank] += c.Load
		}
	}
	return loads
}

// Imbalance is max/mean over a dense per-rank load vector — the factor a
// balancer acts on, counting idle ranks. No load at all is 0.
func Imbalance(loads []float64) float64 {
	hi, total := 0.0, 0.0
	for _, l := range loads {
		total += l
		hi = max(hi, l)
	}
	if total == 0 {
		return 0
	}
	return hi / (total / float64(len(loads)))
}

// NewReport aggregates a snapshot over ranks 0..ranks-1 into per-rank
// loads and shares and the imbalance factor. Both come from RankLoads and
// Imbalance, the balancer's own signal, so a report and the balancer
// never disagree about an idle rank.
func NewReport(cells []HeatCell, ranks int) HeatReport {
	loads := RankLoads(cells, ranks)
	total := 0.0
	for _, l := range loads {
		total += l
	}
	rep := HeatReport{Cells: cells, Ranks: make([]RankLoad, ranks), Imbalance: Imbalance(loads)}
	for r, l := range loads {
		rep.Ranks[r] = RankLoad{Rank: r, Load: l}
		if total > 0 {
			rep.Ranks[r].Share = l / total
		}
	}
	return rep
}
