package namespace

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cudele/internal/journal"
)

func TestCheckHealthyStore(t *testing.T) {
	s := buildSample(t)
	if problems := s.Check(); len(problems) != 0 {
		t.Fatalf("healthy store reported %v", problems)
	}
}

// mustHealthy fails the test when the scrub finds anything wrong with s.
func mustHealthy(t *testing.T, s *Store) {
	t.Helper()
	if problems := s.Check(); len(problems) > 0 {
		t.Fatalf("unhealthy store: %v", problems)
	}
}

func countKind(problems []Problem, kind string) int {
	n := 0
	for _, p := range problems {
		if p.Kind == kind {
			n++
		}
	}
	return n
}

func TestCheckOrphan(t *testing.T) {
	s := buildSample(t)
	// Inject an inode with no dentry.
	s.inodes.put(&Inode{Ino: 999, Parent: RootIno, Name: "ghost", Type: TypeFile})
	problems := s.Check()
	if countKind(problems, "orphan-inode") != 1 {
		t.Fatalf("problems = %v", problems)
	}
	actions := s.Repair()
	if len(actions) != 1 || !strings.Contains(actions[0], "lost+found") {
		t.Fatalf("actions = %v", actions)
	}
	if _, err := s.Resolve("/lost+found/ino-999"); err != nil {
		t.Fatalf("orphan not rescued: %v", err)
	}
	mustHealthy(t, s)
}

func TestCheckDanglingDentry(t *testing.T) {
	s := buildSample(t)
	root := s.Root()
	root.frag.link("phantom", 777) // no such inode
	problems := s.Check()
	if countKind(problems, "dangling-dentry") != 1 {
		t.Fatalf("problems = %v", problems)
	}
	s.Repair()
	mustHealthy(t, s)
	if _, ok := root.frag.lookup("phantom"); ok {
		t.Fatal("dangling dentry survived repair")
	}
}

func TestCheckBadParentAndName(t *testing.T) {
	s := buildSample(t)
	in, _ := s.Resolve("/proj/README")
	in.Parent = RootIno   // lies about its parent
	in.Name = "WRONGNAME" // lies about its name
	problems := s.Check()
	if countKind(problems, "bad-parent") != 1 || countKind(problems, "bad-name") != 1 {
		t.Fatalf("problems = %v", problems)
	}
	s.Repair()
	mustHealthy(t, s)
	proj, _ := s.Resolve("/proj")
	if in.Parent != proj.Ino || in.Name != "README" {
		t.Fatalf("repair wrote %d/%q", in.Parent, in.Name)
	}
}

func TestCheckFileWithChildren(t *testing.T) {
	s := buildSample(t)
	in, _ := s.Resolve("/proj/README")
	in.dentries().link("impossible", 5)
	problems := s.Check()
	if countKind(problems, "file-children") != 1 {
		t.Fatalf("problems = %v", problems)
	}
	s.Repair()
	mustHealthy(t, s)
}

func TestCheckDupIno(t *testing.T) {
	s := buildSample(t)
	// Two dentries referencing the same inode.
	f, _ := s.Resolve("/proj/README")
	root := s.Root()
	root.frag.link("hardlinkish", f.Ino)
	problems := s.Check()
	if countKind(problems, "dup-ino") != 1 {
		t.Fatalf("problems = %v", problems)
	}
}

// TestCheckProblemsInOrder pins Check's whole report — order, paths and
// text, which Repair and `cudele scrub` print — for a store with every
// kind of damage at once: a directory reached through a second dentry
// first, so the damage under it is reported at that path and the
// directory's own dentry is the duplicate. Check builds a path only for
// a directory it descends into or a problem it reports.
func TestCheckProblemsInOrder(t *testing.T) {
	s := buildSample(t)
	a, _ := s.Resolve("/proj/data/a.dat")
	a.Parent, a.Name = RootIno, "WRONG"
	readme, _ := s.Resolve("/proj/README")
	readme.dentries().link("impossible", 5)
	data, _ := s.Resolve("/proj/data")
	s.Root().frag.link("hardlinkish", data.Ino)
	data.frag.link("zz", 777)
	s.inodes.put(&Inode{Ino: 999, Parent: RootIno, Name: "ghost", Type: TypeFile})
	s.ReserveRange(100, 50)
	s.ReserveRange(120, 50)
	want := []string{
		"bad-parent         ino=3      /hardlinkish                   inode says parent=2, dentry in 1",
		"bad-name           ino=3      /hardlinkish                   inode says name=\"data\", dentry says \"hardlinkish\"",
		"bad-parent         ino=4      /hardlinkish/a.dat             inode says parent=1, dentry in 3",
		"bad-name           ino=4      /hardlinkish/a.dat             inode says name=\"WRONG\", dentry says \"a.dat\"",
		"dangling-dentry    ino=777    /hardlinkish/zz                dentry references missing inode",
		"file-children      ino=6      /proj/README                   regular file with 1 dentries",
		"dup-ino            ino=3      /proj/data                     inode reachable through multiple dentries",
		"orphan-inode       ino=999                                   name=\"ghost\" parent=1 not reachable from root",
		"reserved-overlap   ino=120                                   grant [120,170) overlaps [100,150)",
	}
	got := s.Check()
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i].String()
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("problem %d = %q, want %q", i, g, w)
		}
	}
}

func TestCheckReservedOverlap(t *testing.T) {
	s := NewStore()
	s.ReserveRange(100, 50)
	s.ReserveRange(120, 50) // overlaps
	s.ReserveRange(500, 10) // fine
	s.ReserveRange(500, 10) // the same grant re-installed: recorded once
	problems := s.Check()
	if countKind(problems, "reserved-overlap") != 1 || s.ReservedRanges() != 3 {
		t.Fatalf("%d ranges, problems = %v", s.ReservedRanges(), problems)
	}
}

func TestCheckNoRoot(t *testing.T) {
	s := NewStore()
	s.inodes.del(RootIno)
	problems := s.Check()
	if len(problems) != 1 || problems[0].Kind != "no-root" {
		t.Fatalf("problems = %v", problems)
	}
}

func TestProblemString(t *testing.T) {
	p := Problem{Kind: "orphan-inode", Ino: 7, Path: "/x", Info: "hi"}
	if !strings.Contains(p.String(), "orphan-inode") {
		t.Fatalf("string = %q", p.String())
	}
}

// Property: any namespace produced by replaying a random valid journal is
// healthy.
func TestReplayedStoresHealthyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		j := journal.New(4096)
		dirs := []Ino{RootIno}
		nextIno := uint64(5000)
		for op := 0; op < 150; op++ {
			parent := dirs[rng.Intn(len(dirs))]
			nextIno++
			switch rng.Intn(3) {
			case 0:
				j.Append(&journal.Event{Type: journal.EvMkdir,
					Parent: uint64(parent), Name: nameFor(op), Ino: nextIno, Mode: 0755})
				dirs = append(dirs, Ino(nextIno))
			default:
				j.Append(&journal.Event{Type: journal.EvCreate,
					Parent: uint64(parent), Name: nameFor(op), Ino: nextIno, Mode: 0644})
			}
		}
		if _, err := journal.Replay(j.Events(), s); err != nil {
			return false
		}
		return len(s.Check()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func nameFor(op int) string {
	return fmt.Sprintf("n%03d", op)
}

// FuzzCheck holds Check's scan to its report: it builds a small tree from
// the fuzzer's shape bytes, applies the damage its damage bytes choose —
// every kind of problem Check names, and none — and asserts that the scan
// passes exactly when the sorted report finds nothing, and that Check
// returns that report.
func FuzzCheck(f *testing.F) {
	for kind := range byte(checkDamageKinds) {
		f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{kind, 3, 1})
	}
	f.Add([]byte{0, 0, 0, 0}, []byte{})
	f.Add([]byte{0, 1, 0, 1, 2}, []byte{5, 0, 4, 2, 1, 1, 7, 200, 3, 7, 200, 9})
	f.Fuzz(func(t *testing.T, shape, damage []byte) {
		s := NewStore()
		ins := []*Inode{s.Root()}
		for i, b := range shape[:min(len(shape), 64)] {
			dir := ins[int(b>>1)%len(ins)]
			if !dir.IsDir() {
				dir = s.Root()
			}
			mk := s.Create
			if b&1 == 0 {
				mk = s.Mkdir
			}
			in, err := mk(dir.Ino, fmt.Sprintf("n%d", i), CreateAttrs{Mode: 0644})
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, in)
		}
		if !s.scan(s.Root()) || len(s.report(s.Root())) != 0 {
			t.Fatal("a store built by creates is not healthy")
		}
		for i := 0; i+2 < len(damage) && i < 24; i += 3 {
			a, b := ins[int(damage[i+1])%len(ins)], ins[int(damage[i+2])%len(ins)]
			applyCheckDamage(s, damage[i], a, b, Ino(damage[i+1]), uint64(damage[i+2]))
		}
		root := s.Root() // no damage removes the root
		report := s.report(root)
		if healthy := s.scan(root); healthy != (len(report) == 0) {
			t.Fatalf("scan says healthy=%v, report = %v", healthy, report)
		}
		if got := s.Check(); !slices.Equal(got, report) && len(got)+len(report) != 0 {
			t.Fatalf("Check = %v, report = %v", got, report)
		}
	})
}

const checkDamageKinds = 9

// applyCheckDamage damages s by kind, on inodes a and b and the numbers
// x and y.
func applyCheckDamage(s *Store, kind byte, a, b *Inode, x Ino, y uint64) {
	switch kind % checkDamageKinds {
	case 1: // orphan-inode: an inode no dentry names
		s.inodes.put(&Inode{Ino: 1000 + x, Parent: a.Ino, Name: "ghost", Type: TypeFile})
	case 2: // orphan-inode: a's dentry unlinked, a and its subtree left
		if p := s.inodes.get(a.Parent); p != nil && p.frag != nil && a.Ino != RootIno {
			p.frag.unlink(a.Name)
		}
	case 3: // bad-parent, or none when b is a's parent
		a.Parent = b.Ino
	case 4: // bad-name
		a.Name += "x"
	case 5: // dangling-dentry: a deleted, or a dentry to a missing number
		if a.Ino != RootIno {
			s.inodes.del(a.Ino)
		} else {
			a.dentries().link("zz", 5000+x)
		}
	case 6: // dup-ino: a second dentry naming a, perhaps in a's own subtree
		if b.IsDir() {
			b.dentries().link(fmt.Sprintf("dup%d", x), a.Ino)
		}
	case 7: // file-children
		if !a.IsDir() {
			a.dentries().link("impossible", b.Ino)
		}
	case 8: // reserved-overlap, or none when the grants are disjoint
		s.ReserveRange(1+x*16, 1+y%32)
	}
}

// TestHealthyCheckIsAScan holds a healthy scrub to one scan: it lists no
// directory — so it sorts nothing — and its allocations follow the inode
// pages (inodes/64), not the inodes.
func TestHealthyCheckIsAScan(t *testing.T) {
	s := NewStore()
	for d := range 10 {
		dir, err := s.Mkdir(RootIno, fmt.Sprintf("d%d", d), CreateAttrs{Mode: 0755})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 999 {
			if _, err := s.Create(dir.Ino, fmt.Sprintf("f%04d", i), CreateAttrs{Mode: 0644}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.ReserveRange(1<<40, 1<<24)
	s.ReserveRange(1<<41, 1<<24)
	if s.Len() != 10_001 {
		t.Fatalf("store holds %d inodes", s.Len())
	}
	before := s.ListStats()
	allocs := testing.AllocsPerRun(10, func() {
		if problems := s.Check(); problems != nil {
			t.Fatalf("healthy store reported %v", problems)
		}
	})
	if after := s.ListStats(); after != before {
		t.Fatalf("a healthy scrub moved ListStats from %+v to %+v", before, after)
	}
	if limit := float64(s.Len() / 64); allocs > limit {
		t.Fatalf("a healthy scrub of %d inodes allocates %.0f times, want at most %.0f", s.Len(), allocs, limit)
	}
}

func TestInoSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() Ino {
		switch rng.Intn(8) {
		case 0:
			return Ino(rng.Uint64()) // a run of its own
		case 1, 2:
			return 1<<40 + Ino(rng.Intn(1<<12))
		}
		return Ino(rng.Intn(1 << 12))
	}
	tab := newInoTable()
	inos := make([]Ino, 5000)
	for i := range inos {
		inos[i] = pick()
		tab.put(&Inode{Ino: inos[i]})
	}
	set := newInoSet(&tab)
	ref := make(map[Ino]bool)
	for _, ino := range inos {
		if set.has(ino) != ref[ino] {
			t.Fatalf("has(%d) = %v before add", ino, !ref[ino])
		}
		if set.add(ino) == ref[ino] {
			t.Fatalf("add(%d) disagrees with the map", ino)
		}
		ref[ino] = true
	}
	for ino := range ref {
		if !set.has(ino) {
			t.Fatalf("has(%d) = false after add", ino)
		}
	}
}
