package namespace

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// checkDentries compares d with model, the map it must equal, and checks
// the table's own bookkeeping: every position is live or on the free
// list, and the index finds every live name and counts its fill.
func checkDentries(t *testing.T, d *Dentries, model map[string]Ino, step string) {
	t.Helper()
	if d.Len() != len(model) {
		t.Fatalf("%s: Len() = %d, model has %d", step, d.Len(), len(model))
	}
	seen := make(map[string]bool, len(model))
	for name, ino := range d.All() {
		if seen[name] {
			t.Fatalf("%s: All yields %q twice", step, name)
		}
		seen[name] = true
		if want, ok := model[name]; !ok || want != ino {
			t.Fatalf("%s: All yields %q -> %d, model has %d (present %v)", step, name, ino, want, ok)
		}
	}
	if len(seen) != len(model) {
		t.Fatalf("%s: All yields %d names, model has %d", step, len(seen), len(model))
	}
	for name, want := range model {
		if got, ok := d.Get(name); !ok || got != want {
			t.Fatalf("%s: Get(%q) = %d, %v; want %d", step, name, got, ok, want)
		}
	}
	free := 0
	for f := d.free; f != 0; f = uint32(d.at(f - 1).ino) {
		if d.at(f-1).name != "" || free > int(d.used) {
			t.Fatalf("%s: free list runs through a live or looping position %d", step, f-1)
		}
		free++
	}
	if free+d.Len() != int(d.used) {
		t.Fatalf("%s: %d free + %d live positions, %d handed out", step, free, d.Len(), d.used)
	}
	ix := d.big
	if ix == nil {
		if d.used > smallDir {
			t.Fatalf("%s: %d positions and no index", step, d.used)
		}
		return
	}
	live, tombs := 0, 0
	for _, s := range ix.slots {
		switch {
		case s == tombSlot:
			tombs++
		case s != 0:
			live++
		}
	}
	if live != d.Len() || uint32(live+tombs) != ix.fill || 4*ix.fill > 3*uint32(len(ix.slots)) {
		t.Fatalf("%s: index of %d slots holds %d live and %d tombstones, fill %d; %d names",
			step, len(ix.slots), live, tombs, ix.fill, d.Len())
	}
}

// TestDentriesModel drives a table and a map[string]Ino through the same
// random creates, repoints, lookups, unlinks and renames, growing each
// round's directory past the small-directory threshold and shrinking it
// back below, and compares them after every step. It checks that a
// freed position is handed out again before a new one, and that the run
// left tombstones, grew the index and rebuilt it at the same size.
func TestDentriesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := new(Dentries)
		model := make(map[string]Ino)
		next := Ino(2)
		var sawTomb, sawSmallAgain bool
		growths, sameSize := 0, 0
		name := func() string { return fmt.Sprintf("n%d", rng.Intn(600)) }
		for round, target := range []int{5, 30, 3, 300, 7, 1200, 2, 60, 0, 9} {
			for step := 0; step < 1500; step++ {
				at := fmt.Sprintf("seed %d round %d step %d", seed, round, step)
				slots := 0
				if d.big != nil {
					slots = len(d.big.slots)
				}
				tombsBefore := d.big != nil && d.big.fill > d.n
				grow := len(model) < target || rng.Intn(4) == 0
				switch op := rng.Intn(10); {
				case op < 4 && grow: // create or repoint
					nm := name()
					_, had := model[nm]
					used, free := d.used, d.free
					d.Set(nm, next)
					model[nm] = next
					next++
					if !had && free != 0 && d.used != used {
						t.Fatalf("%s: a new name took a new position with position %d free", at, free-1)
					}
				case op < 7: // unlink, or rename over whatever the new name held
					if len(model) == 0 || grow && op == 6 {
						continue
					}
					var victim string
					for victim = range model {
						break
					}
					ino := model[victim]
					d.Delete(victim)
					delete(model, victim)
					if op == 6 {
						nm := name()
						d.Set(nm, ino)
						model[nm] = ino
					}
				case op < 9: // lookup, hit or miss
					nm := name()
					got, ok := d.Get(nm)
					if want, has := model[nm]; ok != has || got != want {
						t.Fatalf("%s: Get(%q) = %d, %v; model %d, %v", at, nm, got, ok, want, has)
					}
				default: // delete a name that may be absent
					nm := name()
					d.Delete(nm)
					delete(model, nm)
				}
				if d.big != nil && d.big.fill > d.n {
					sawTomb = true
				}
				if d.big != nil && len(d.big.slots) > slots && slots != 0 {
					growths++
				}
				if d.big != nil && len(d.big.slots) == slots && tombsBefore && d.big.fill == d.n {
					sameSize++
				}
				if d.big != nil && d.Len() <= smallDir {
					sawSmallAgain = true
				}
				if step%50 == 0 || step == 1499 {
					checkDentries(t, d, model, at)
				}
			}
		}
		if !sawTomb || !sawSmallAgain || growths == 0 || sameSize == 0 {
			t.Fatalf("seed %d: tombstones %v, back below %d names %v, %d index growths, %d same-size rebuilds: the run missed a case",
				seed, sawTomb, smallDir, sawSmallAgain, growths, sameSize)
		}
	}
}

// TestDentriesLargeDirectory fills one table past 2^17 names, where an
// index slot has 14 bits of tag left, checks every name, deletes every
// third and checks again; and it checks that a slot encodes positions
// past 2^24, where a fixed 8-bit tag would have run out of position bits.
func TestDentriesLargeDirectory(t *testing.T) {
	const n = 1<<17 + 1000
	d := new(Dentries)
	model := make(map[string]Ino, n)
	for i := 0; i < n; i++ {
		nm := fmt.Sprintf("file%07d", i)
		d.Set(nm, Ino(i+2))
		model[nm] = Ino(i + 2)
	}
	checkDentries(t, d, model, "filled")
	for i := 0; i < n; i += 3 {
		nm := fmt.Sprintf("file%07d", i)
		d.Delete(nm)
		delete(model, nm)
	}
	checkDentries(t, d, model, "thinned")

	for _, size := range []int{1 << 18, 1 << 26, 1 << 30} {
		mask := uint32(size - 1)
		for _, pos := range []uint32{0, 1 << 17, 1<<24 + 5, uint32(size/4*3 - 1)} {
			if pos+1 > uint32(size/4*3) {
				continue
			}
			h := uint64(0xdeadbeefcafef00d)
			s := slotOf(h, pos, size)
			if s&mask-1 != pos || s&^mask != uint32(h>>32)&^mask || s == tombSlot || s == 0 {
				t.Errorf("slotOf(pos %d, %d slots) = %#x: decodes to position %d", pos, size, s, s&mask-1)
			}
		}
	}
}

// TestDentriesBytes measures what filling a table with n names allocates,
// the table included, against a map[string]Ino filled with the same names
// in the same run, and requires the table to allocate no more at any size.
func TestDentriesBytes(t *testing.T) {
	for _, n := range []int{1, 4, 8, 20, 100, 1000, 10000} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("file%06d", i)
		}
		reps := max(8, 40000/n)
		measure := func(fill func()) float64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for r := 0; r < reps; r++ {
				fill()
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
		}
		table := measure(func() {
			d := new(Dentries)
			for i, nm := range names {
				d.Set(nm, Ino(i+2))
			}
			dentriesSink = d
		})
		m := measure(func() {
			m := make(map[string]Ino)
			for i, nm := range names {
				m[nm] = Ino(i + 2)
			}
			mapSink = m
		})
		t.Logf("%5d names: table %8.0f B (%6.1f B/name), map %8.0f B (%6.1f B/name)",
			n, table, table/float64(n), m, m/float64(n))
		if table > m {
			t.Errorf("%d names: the table allocates %.0f B, the map %.0f B", n, table, m)
		}
	}
}

var (
	dentriesSink *Dentries
	mapSink      map[string]Ino
)
