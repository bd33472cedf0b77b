package namespace

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestInoTableModel drives random puts, gets and dels over the three shapes
// of inode number a store sees — a rank's band, a client's grant, and
// scattered singletons such as a hostile directory object could carry —
// against a plain map. After every step the table answers like the map; a
// page whose last inode went is gone, and with it the remembered page, so
// no read is served from a page the table no longer owns.
func TestInoTableModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		singles := make([]Ino, 40)
		for i := range singles {
			singles[i] = Ino(rng.Uint64())
		}
		pick := func() Ino {
			switch rng.Intn(3) {
			case 0:
				return 1<<32 + Ino(rng.Intn(4*pageSize))
			case 1:
				return 1<<40 + Ino(rng.Intn(4*pageSize))
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
			if tab.lastKey != noPage && tab.pages[tab.lastKey] != tab.last {
				t.Fatalf("seed %d step %d: remembered page %d is not the table's", seed, step, tab.lastKey)
			}
			if step%100 != 99 {
				continue
			}
			pages := make(map[Ino]bool)
			for ino := range model {
				pages[ino>>pageBits] = true
			}
			if len(tab.pages) != len(pages) {
				t.Fatalf("seed %d step %d: %d pages held for inodes on %d", seed, step, len(tab.pages), len(pages))
			}
			seen := make(map[Ino]bool)
			tab.each(func(in *Inode) {
				if seen[in.Ino] || model[in.Ino] != in {
					t.Fatalf("seed %d step %d: each visited %d (again: %v), model has %p", seed, step, in.Ino, seen[in.Ino], model[in.Ino])
				}
				seen[in.Ino] = true
			})
			if len(seen) != len(model) {
				t.Fatalf("seed %d step %d: each visited %d inodes of %d", seed, step, len(seen), len(model))
			}
		}
	}
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
