package obs

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

const sec = int64(time.Second)

// TestHeatHalfLife pins the decay math: mass added at t reads back
// halved at t+halfLife, quartered at t+2*halfLife.
func TestHeatHalfLife(t *testing.T) {
	h := NewHeat(10 * time.Second)
	for i := 0; i < 100; i++ {
		h.RecordOp(0, "/a", 0, true, 0)
	}
	at := func(now int64) float64 {
		cells := h.Snapshot(now)
		if len(cells) != 1 {
			t.Fatalf("snapshot has %d cells, want 1", len(cells))
		}
		return cells[0].Writes
	}
	for _, tc := range []struct {
		now  int64
		want float64
	}{
		{0, 100},
		{10 * sec, 50},
		{20 * sec, 25},
	} {
		if got := at(tc.now); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("writes at t=%ds: got %g, want %g", tc.now/sec, got, tc.want)
		}
	}
}

// TestHeatDecayIsLazy asserts decay folds in per touch, not per read:
// two adds a half-life apart combine as x/2 + x.
func TestHeatDecayIsLazy(t *testing.T) {
	h := NewHeat(10 * time.Second)
	h.RecordMerge(0, "/a", 1, 8, 1024)
	h.RecordMerge(10*sec, "/a", 1, 8, 1024)
	cells := h.Snapshot(10 * sec)
	if len(cells) != 1 {
		t.Fatalf("snapshot has %d cells, want 1", len(cells))
	}
	if got, want := cells[0].Merges, 12.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("merges: got %g, want %g", got, want)
	}
	if got, want := cells[0].Bytes, 1536.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("bytes: got %g, want %g", got, want)
	}
}

// TestHeatSnapshotOrderAndLoad asserts snapshots sort by subtree then
// rank and Load sums reads+writes+merges.
func TestHeatSnapshotOrderAndLoad(t *testing.T) {
	h := NewHeat(0)
	h.RecordOp(0, "/b", 1, false, 0)
	h.RecordOp(0, "/a", 2, true, time.Millisecond)
	h.RecordOp(0, "/a", 0, false, 0)
	h.RecordMerge(0, "/a", 0, 3, 0)
	cells := h.Snapshot(0)
	want := []HeatKey{{"/a", 0}, {"/a", 2}, {"/b", 1}}
	if len(cells) != len(want) {
		t.Fatalf("snapshot has %d cells, want %d", len(cells), len(want))
	}
	for i, k := range want {
		if cells[i].Subtree != k.Subtree || cells[i].Rank != k.Rank {
			t.Errorf("cell %d is (%s,%d), want (%s,%d)",
				i, cells[i].Subtree, cells[i].Rank, k.Subtree, k.Rank)
		}
	}
	if got := cells[0].Load; got != 4 { // 1 read + 3 merged events
		t.Errorf("(/a,0) load = %g, want 4", got)
	}
	if got := cells[1].WaitSeconds; math.Abs(got-0.001) > 1e-12 {
		t.Errorf("(/a,2) wait = %g, want 0.001", got)
	}
}

// TestHeatNilDisabled asserts the disabled accountant is a nil pointer
// whose methods all no-op — the hot-path contract.
func TestHeatNilDisabled(t *testing.T) {
	var h *Heat
	h.RecordOp(0, "/a", 0, true, time.Second)
	h.RecordMerge(0, "/a", 0, 1, 1)
	if got := h.Snapshot(0); got != nil {
		t.Errorf("nil heat snapshot = %v, want nil", got)
	}
}

// TestHeatRecordSteadyStateAllocs asserts the record path is
// allocation-free once a cell exists — heat accounting must not put
// pressure on the GC of a real-backend run.
func TestHeatRecordSteadyStateAllocs(t *testing.T) {
	h := NewHeat(0)
	h.RecordOp(0, "/a", 0, true, time.Millisecond)
	now := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += int64(time.Millisecond)
		h.RecordOp(now, "/a", 0, true, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("RecordOp steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHeatReportImbalance pins the report aggregation: per-rank loads,
// shares, and the max/mean imbalance factor over every rank, an idle one
// included.
func TestHeatReportImbalance(t *testing.T) {
	cells := []HeatCell{
		{Subtree: "/a", Rank: 0, Load: 300},
		{Subtree: "/b", Rank: 0, Load: 100},
		{Subtree: "/c", Rank: 1, Load: 100},
		{Subtree: "/d", Rank: 2, Load: 100},
	}
	rep := NewReport(cells, 4)
	if len(rep.Ranks) != 4 {
		t.Fatalf("report has %d ranks, want 4", len(rep.Ranks))
	}
	if got := rep.Ranks[0].Load; got != 400 {
		t.Errorf("rank 0 load = %g, want 400", got)
	}
	if got := rep.Ranks[0].Share; math.Abs(got-400.0/600.0) > 1e-12 {
		t.Errorf("rank 0 share = %g, want %g", got, 400.0/600.0)
	}
	if idle := rep.Ranks[3]; idle.Rank != 3 || idle.Load != 0 || idle.Share != 0 {
		t.Errorf("idle rank 3 = %+v, want rank 3 with no load", idle)
	}
	// max 400 over mean 150 (the idle rank counts) = 8/3
	if got := rep.Imbalance; math.Abs(got-8.0/3.0) > 1e-12 {
		t.Errorf("imbalance = %g, want %g", got, 8.0/3.0)
	}
	if rep := NewReport(nil, 2); rep.Imbalance != 0 || len(rep.Ranks) != 2 || rep.Ranks[1].Share != 0 {
		t.Errorf("empty report = %+v, want two idle ranks, imbalance 0", rep)
	}
}

// TestRankLoadsImbalance pins the balancer's load signal: a dense
// per-rank vector in which an idle rank counts, and max/mean over it.
func TestRankLoadsImbalance(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cells     []HeatCell
		ranks     int
		loads     []float64
		imbalance float64
	}{
		{"idle rank counts", []HeatCell{{Rank: 0, Load: 3}, {Rank: 0, Load: 1}, {Rank: 1, Load: 2}},
			3, []float64{4, 2, 0}, 2},
		{"out-of-range rank dropped", []HeatCell{{Rank: 0, Load: 1}, {Rank: 1, Load: 1}, {Rank: 2, Load: 50}, {Rank: -1, Load: 50}},
			2, []float64{1, 1}, 1},
		{"all-zero loads", []HeatCell{{Rank: 0}, {Rank: 1}}, 2, []float64{0, 0}, 0},
		{"no ranks", nil, 0, []float64{}, 0},
		{"one loaded rank of four", []HeatCell{{Rank: 2, Load: 7}}, 4, []float64{0, 0, 7, 0}, 4},
	} {
		loads := RankLoads(tc.cells, tc.ranks)
		if !slices.Equal(loads, tc.loads) {
			t.Errorf("%s: RankLoads = %v, want %v", tc.name, loads, tc.loads)
		}
		if got := Imbalance(loads); got != tc.imbalance {
			t.Errorf("%s: Imbalance(%v) = %g, want %g", tc.name, loads, got, tc.imbalance)
		}
	}
}

// TestHeatConcurrentRecordSnapshot hammers the accountant from recorder
// and scraper goroutines — run under -race, this is the real-backend
// admin-scrape safety test.
func TestHeatConcurrentRecordSnapshot(t *testing.T) {
	h := NewHeat(time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				now := int64(i) * int64(time.Microsecond)
				h.RecordOp(now, "/sub", g%2, i%2 == 0, time.Microsecond)
				h.RecordMerge(now, "/sub", g%2, 1, 64)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = h.Snapshot(int64(i) * int64(time.Microsecond))
		}
	}()
	wg.Wait()
	if cells := h.Snapshot(int64(2000) * int64(time.Microsecond)); len(cells) != 2 {
		t.Errorf("snapshot has %d cells, want 2", len(cells))
	}
}
