package namespace

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestInoTableModel drives random puts, gets and dels over the shapes of
// inode number a store sees — the root, two ranks' bands (rank << 32),
// clients' grant slots (1<<40 + rank<<34 + slot<<24, as the monitor hands
// them out) and scattered singletons such as a hostile directory object
// could carry — against a plain map. Now and then it prunes a band's run
// and imports it back with new structs under the same numbers, the way a
// migration away and home does. After every step the table answers like
// the map; every hundred steps the runs are checked whole (checkRuns) and
// each visits the live set once, in number order.
func TestInoTableModel(t *testing.T) {
	bases := []Ino{
		1 << 32, 2 << 32, // two ranks' bands
		1<<40 + 0<<34 + 3<<24, 1<<40 + 1<<34 + 0<<24, 1<<40 + 1<<34 + 1<<24, // grant slots
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		singles := make([]Ino, 40)
		for i := range singles {
			singles[i] = Ino(rng.Uint64())
		}
		pick := func() Ino {
			switch r := rng.Intn(8); {
			case r == 0:
				return RootIno
			case r < 6:
				return bases[rng.Intn(len(bases))] + Ino(rng.Intn(4*pageSize))
			}
			return singles[rng.Intn(len(singles))]
		}
		tab, model := newInoTable(), make(map[Ino]*Inode)
		for step := 0; step < 5000; step++ {
			ino := pick()
			switch r := rng.Intn(100); {
			case r < 45:
				in := &Inode{Ino: ino}
				tab.put(in)
				model[ino] = in
			case r < 80:
				tab.del(ino)
				delete(model, ino)
			case r < 82:
				// Empty a whole page, the way PruneSubtree empties a run.
				for base, i := ino&^(pageSize-1), Ino(0); i < pageSize; i++ {
					tab.del(base + i)
					delete(model, base+i)
				}
			case r < 83:
				// Prune a band's run and import it back: the same
				// numbers must come back as the new structs.
				base := bases[rng.Intn(len(bases))]
				var back []Ino
				for i := Ino(0); i < 4*pageSize; i++ {
					if model[base+i] != nil {
						back = append(back, base+i)
					}
					tab.del(base + i)
					delete(model, base+i)
				}
				for _, ino := range back {
					old := tab.get(ino)
					in := &Inode{Ino: ino}
					tab.put(in)
					model[ino] = in
					if old != nil || tab.get(ino) != in {
						t.Fatalf("seed %d step %d: reimported %d reads %p after the prune and %p after, want nil and %p", seed, step, ino, old, tab.get(ino), in)
					}
				}
			}
			if got := tab.get(ino); got != model[ino] {
				t.Fatalf("seed %d step %d: get(%d) = %p, model has %p", seed, step, ino, got, model[ino])
			}
			if probe := pick(); tab.get(probe) != model[probe] {
				t.Fatalf("seed %d step %d: get(%d) = %p, model has %p", seed, step, probe, tab.get(probe), model[probe])
			}
			if tab.len() != len(model) {
				t.Fatalf("seed %d step %d: len = %d, model has %d", seed, step, tab.len(), len(model))
			}
			if step%100 != 99 {
				continue
			}
			checkRuns(t, &tab, model)
			var prev *Inode
			seen := 0
			tab.each(func(in *Inode) {
				if model[in.Ino] != in || prev != nil && prev.Ino >= in.Ino {
					t.Fatalf("seed %d step %d: each visited %d after %v, model has %p", seed, step, in.Ino, prev, model[in.Ino])
				}
				prev = in
				seen++
			})
			if seen != len(model) {
				t.Fatalf("seed %d step %d: each visited %d inodes of %d", seed, step, seen, len(model))
			}
		}
	}
}

// checkRuns fails t unless tab's runs are sorted and disjoint, each
// starts and ends on a page in use and counts its pages in use, and the
// pages held are exactly the pages model has inodes on.
func checkRuns(t *testing.T, tab *inoTable, model map[Ino]*Inode) {
	t.Helper()
	live := make(map[Ino]bool)
	for ino := range model {
		live[ino>>pageBits] = true
	}
	held := 0
	for i, r := range tab.runs {
		if i > 0 && tab.runs[i-1].lo+Ino(len(tab.runs[i-1].pages)) > r.lo {
			t.Fatalf("run %d at page %d overlaps or precedes the run before it", i, r.lo)
		}
		if len(r.pages) == 0 || r.pages[0] == nil || r.pages[len(r.pages)-1] == nil {
			t.Fatalf("run %d at page %d holds %d slots and does not start and end on a page", i, r.lo, len(r.pages))
		}
		used := 0
		for off, pg := range r.pages {
			if pg == nil {
				continue
			}
			used++
			if !live[r.lo+Ino(off)] {
				t.Fatalf("run %d holds page %d, which has no inode", i, r.lo+Ino(off))
			}
		}
		if used != r.used {
			t.Fatalf("run %d at page %d counts %d pages in use, holds %d", i, r.lo, r.used, used)
		}
		held += used
	}
	if held != len(live) {
		t.Fatalf("%d pages held for inodes on %d", held, len(live))
	}
}

// TestInoTableReleasesPagesAndRuns: a page goes with its last inode, a run
// is trimmed to its pages in use when it loses one at either end and goes
// with its last page, and a number far from every run starts its own run
// rather than stretching one over the gap.
func TestInoTableReleasesPagesAndRuns(t *testing.T) {
	tab := newInoTable()
	band, grant := Ino(1)<<32, Ino(1)<<40
	for i := Ino(0); i < 10*pageSize; i++ {
		tab.put(&Inode{Ino: band + i})
		tab.put(&Inode{Ino: grant + i})
	}
	tab.put(&Inode{Ino: grant + 1<<20}) // far past the grant's run
	if len(tab.runs) != 3 || len(tab.runs[1].pages) != 10 || len(tab.runs[2].pages) != 1 {
		t.Fatalf("two dense runs of 10 pages and a singleton make %d runs: %+v", len(tab.runs), tab.runs)
	}
	for i := Ino(0); i < pageSize; i++ { // the band's first page
		tab.del(band + i)
	}
	for i := 9 * pageSize; i < 10*pageSize; i++ { // and its last
		tab.del(band + Ino(i))
	}
	for i := 4 * pageSize; i < 5*pageSize; i++ { // and one between
		tab.del(band + Ino(i))
	}
	if r := tab.runs[0]; r.lo != band>>pageBits+1 || len(r.pages) != 8 || r.used != 7 || r.pages[3] != nil {
		t.Fatalf("band run after losing pages 0, 4 and 9: lo %d, %d slots, %d used, want lo %d, 8 slots, 7 used and a hole at 3",
			r.lo, len(r.pages), r.used, band>>pageBits+1)
	}
	for i := Ino(0); i < 10*pageSize; i++ {
		tab.del(grant + i)
	}
	if len(tab.runs) != 2 || tab.runs[1].lo != (grant+1<<20)>>pageBits {
		t.Fatalf("emptying the grant's run leaves %+v, want the band's and the singleton's", tab.runs)
	}
	tab.del(grant + 1<<20)
	for i := Ino(0); i < 10*pageSize; i++ {
		tab.del(band + i)
	}
	if len(tab.runs) != 0 || tab.len() != 0 {
		t.Fatalf("an empty table holds %d runs and counts %d inodes", len(tab.runs), tab.len())
	}
}

// TestInoTableGetAllocatesNothing: a hit, a miss inside a run, a miss
// between runs and one below every run allocate nothing.
func TestInoTableGetAllocatesNothing(t *testing.T) {
	tab := newInoTable()
	for i := Ino(0); i < 1000; i++ {
		tab.put(&Inode{Ino: 1<<40 + i})
		tab.put(&Inode{Ino: 1<<32 + 3*i})
	}
	probes := []Ino{1<<40 + 7, 1<<40 + 1001, 1 << 36, 5}
	if avg := testing.AllocsPerRun(100, func() {
		for _, ino := range probes {
			benchSink = tab.get(ino)
		}
	}); avg != 0 {
		t.Fatalf("get allocates %.1f times", avg)
	}
}

// TestInoTableConcurrentGets: a get writes nothing, so two goroutines may
// read one table at once; under -race a cache written by get fails here.
func TestInoTableConcurrentGets(t *testing.T) {
	tab := newInoTable()
	want := make(map[Ino]*Inode)
	for i := Ino(0); i < 4096; i++ {
		for _, ino := range []Ino{1<<32 + i, 1<<40 + 2*i} {
			want[ino] = &Inode{Ino: ino}
			tab.put(want[ino])
		}
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 20000 {
				ino := Ino(1)<<32 + Ino(rng.Intn(8192))
				if rng.Intn(2) == 0 {
					ino = 1<<40 + Ino(rng.Intn(8192))
				}
				if got := tab.get(ino); got != want[ino] {
					t.Errorf("get(%d) = %p, want %p", ino, got, want[ino])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInoTableSparseCost pins what the index itself costs per inode (the
// 80-byte Inode not counted) at the two ends DESIGN.md quotes: a dense run,
// one pointer each, and the worst case of one inode per page.
func TestInoTableSparseCost(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		stride Ino
		max    float64 // bytes per inode
	}{
		{"dense", 100000, 1, 12},
		{"one per page", 10000, pageSize, 700},
	} {
		inodes := make([]Inode, tc.n)
		for i := range inodes {
			inodes[i].Ino = 1<<40 + Ino(i)*tc.stride
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tab := newInoTable()
		for i := range inodes {
			tab.put(&inodes[i])
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(tc.n)
		if tab.len() != tc.n || per > tc.max {
			t.Errorf("%s: %d inodes indexed at %.1f B each, want %d at <= %.0f", tc.name, tab.len(), per, tc.n, tc.max)
		}
		t.Logf("%s: %.1f B per inode", tc.name, per)
	}
}
