package namespace

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"cudele/internal/journal"
)

// TestInodeSize pins Inode at 80 bytes, the top of its allocator size
// class. One more word moves every create into the 96- or 112-byte class
// (+4 to +8 % allocated bytes per create on the host benchmark's write
// workloads); per-directory state belongs in dirFrag.
func TestInodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Inode{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(Inode{}) = %d, want 80: put directory-only state in dirFrag", got)
	}
}

// TestEventSize pins journal.Event at 112 bytes: Type sits in the padding
// after GID. With it first, the struct is 120 bytes and every event a
// decoupled client journals or a merge decodes is allocated in the
// 128-byte class.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(journal.Event{}); got != 112 {
		t.Fatalf("unsafe.Sizeof(journal.Event{}) = %d, want 112: keep the 8-bit Type beside the 32-bit fields", got)
	}
}

// TestSEEntrySize pins the strong-eventual summary at 64 bytes, so a
// slab of 8 KB carves 127 of them (seSlab). Most merged names only ever
// see file creates; with the directory and tombstone tags inline every
// summary was 128 bytes and a slab carved 63.
func TestSEEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(seEntry{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(seEntry{}) = %d, want 64: keep what file creates do not use in seMore", got)
	}
	if seSlab != 127 {
		t.Fatalf("seSlab = %d, want 127", seSlab)
	}
}

// checkListings lists every directory of s and compares each listing, and
// its inode column, with the directory's dentry table, so it both verifies
// the snapshots and leaves every directory with one and its column for the
// next mutation to invalidate.
func checkListings(t *testing.T, s *Store, step string) {
	t.Helper()
	s.inodes.each(func(in *Inode) {
		ino := in.Ino
		if !in.IsDir() {
			return
		}
		want := make([]string, 0, in.frag.len())
		if in.frag != nil {
			for name := range in.frag.ents.All() {
				want = append(want, name)
			}
		}
		sort.Strings(want)
		got, err := s.ReadDir(ino)
		if err != nil {
			t.Fatalf("%s: ReadDir(%d): %v", step, ino, err)
		}
		if len(got) != cap(got) {
			t.Fatalf("%s: ReadDir(%d) has len %d, cap %d: an append would write into the snapshot",
				step, ino, len(got), cap(got))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ReadDir(%d) = %v, dentry table has %v", step, ino, got, want)
		}
		names, inos := in.frag.column(&s.lists)
		for i, name := range names {
			if want, _ := in.frag.ents.Get(name); inos[i] != want {
				t.Fatalf("%s: the inode column of %d says %s is %d, dentry table has %d", step, ino, name, inos[i], want)
			}
		}
	})
}

// TestListingFollowsEveryMutation drives random mutations of every kind
// that edits a dentry table and, after each one, compares every directory's
// listing with its table. Every directory holds a snapshot when the next
// step runs, so a mutation that forgot to drop one is caught at once.
func TestListingFollowsEveryMutation(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		pick := func() string { return names[rng.Intn(len(names))] }
		dir := func() Ino {
			dirs, _, _ := s.Subtree("/")
			return dirs[rng.Intn(len(dirs))]
		}
		checkListings(t, s, "empty store")
		for i := 0; i < 600; i++ {
			var step string
			switch op := rng.Intn(12); op {
			case 0, 1, 2:
				d, n := dir(), pick()
				step = fmt.Sprintf("create %d/%s", d, n)
				s.Create(d, n, CreateAttrs{})
			case 3:
				d, n := dir(), pick()
				step = fmt.Sprintf("mkdir %d/%s", d, n)
				s.Mkdir(d, n, CreateAttrs{})
			case 4:
				d, n := dir(), pick()
				step = fmt.Sprintf("unlink %d/%s", d, n)
				s.Unlink(d, n)
			case 5:
				d, n := dir(), pick()
				step = fmt.Sprintf("rmdir %d/%s", d, n)
				s.Rmdir(d, n)
			case 6:
				// Same directory; with six names the destination is often
				// an existing file or an empty directory.
				d, from, to := dir(), pick(), pick()
				step = fmt.Sprintf("rename %d/%s -> %s", d, from, to)
				s.Rename(d, from, d, to)
			case 7, 8:
				sd, dd, from, to := dir(), dir(), pick(), pick()
				step = fmt.Sprintf("rename %d/%s -> %d/%s", sd, from, dd, to)
				s.Rename(sd, from, dd, to)
			case 9:
				// A directory object written earlier replaces the
				// directory's file dentries (recovery, migration import).
				d := dir()
				step = fmt.Sprintf("install an edited object of %d", d)
				data, err := s.EncodeDir(d)
				if err != nil {
					t.Fatal(err)
				}
				obj, err := DecodeDir(data)
				if err != nil {
					t.Fatal(err)
				}
				kept := obj.Entries[:0]
				for _, e := range obj.Entries {
					if e.Type == TypeDir || rng.Intn(2) == 0 {
						kept = append(kept, e)
					}
				}
				obj.Entries = append(kept, DirEntry{Name: "installed", Ino: s.AllocIno(), Type: TypeFile})
				if err := s.InstallDir(obj); err != nil {
					t.Fatalf("seed %d step %d (%s): %v", seed, i, step, err)
				}
			case 10:
				// Damage the tree the way a bug would, then repair: a
				// dangling dentry is unlinked, an orphan is linked into
				// /lost+found.
				d := dir()
				step = fmt.Sprintf("repair after damage in %d", d)
				in, _ := s.Get(d)
				in.frag.link("dangling", 1<<40)
				orphan := s.AllocIno()
				s.inodes.put(&Inode{Ino: orphan, Parent: 1 << 41, Name: "orphan"})
				s.Repair()
				mustHealthy(t, s)
			case 11:
				// Migrate a subtree away and back: prune it, then import
				// the same inode numbers, with the subtree root emptied.
				d := dir()
				if d == RootIno {
					continue
				}
				p, err := s.PathOf(d)
				if err != nil {
					t.Fatal(err)
				}
				step = "prune and re-import " + p
				root, _ := s.Get(d)
				obj := &DirObject{Ino: root.Ino, Parent: root.Parent, Name: root.Name, Mode: root.Mode}
				if _, err := s.PruneSubtree(p); err != nil {
					t.Fatal(err)
				}
				checkListings(t, s, step+" (pruned)")
				if err := s.InstallDir(obj); err != nil {
					t.Fatal(err)
				}
			}
			checkListings(t, s, fmt.Sprintf("seed %d step %d (%s)", seed, i, step))
		}
		mustHealthy(t, s)
	}
}

// TestListingIsASnapshot: a listing taken before a mutation still reads
// as it did, and appending to one does not reach the shared snapshot.
func TestListingIsASnapshot(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"b", "d", "f"} {
		if _, err := s.Create(RootIno, n, CreateAttrs{}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := s.ReadDir(RootIno)
	again, _ := s.ReadDir(RootIno)
	if &before[0] != &again[0] {
		t.Fatal("two listings of an unchanged directory do not share one snapshot")
	}

	s.Create(RootIno, "a", CreateAttrs{})
	s.Unlink(RootIno, "d")
	s.Rename(RootIno, "f", RootIno, "z")
	if fmt.Sprint(before) != "[b d f]" {
		t.Fatalf("listing taken before the mutations now reads %v", before)
	}
	after, _ := s.ReadDir(RootIno)
	if fmt.Sprint(after) != "[a b z]" {
		t.Fatalf("listing after the mutations = %v", after)
	}

	grown := append(after, "zz")
	grown[0] = "clobbered"
	if third, _ := s.ReadDir(RootIno); fmt.Sprint(third) != "[a b z]" {
		t.Fatalf("append to a returned listing changed the snapshot: %v", third)
	}
}

// TestWalkSeesMidIterationChanges: a walk and EncodeDir read each name's
// inode from the snapshot's column, but a callback that links or unlinks
// in the directory being walked drops the column, and the names after it
// are looked up again — even when a nested walk has built a new column in
// the meantime.
func TestWalkSeesMidIterationChanges(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, err := s.Create(RootIno, n, CreateAttrs{}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := s.Lookup(RootIno, "a")
	b, _ := s.Lookup(RootIno, "b")
	c, _ := s.Lookup(RootIno, "c")
	d, _ := s.Lookup(RootIno, "d")
	root := s.Root()
	walk := func() { s.Walk(RootIno, func(string, *Inode) error { return nil }) }
	walk()
	if root.frag.inos == nil {
		t.Fatal("a walk built no inode column")
	}

	got := make(map[string]Ino)
	err := root.frag.each(&s.lists, func(name string, ino Ino) error {
		got[name] = ino
		if name == "a" {
			// Unlink b, point c at d's inode, and walk the changed
			// directory so that it holds a new snapshot and column.
			s.Unlink(RootIno, "b")
			root.frag.link("c", d.Ino)
			walk()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got["b"] != 0 || got["c"] != d.Ino || got["d"] != d.Ino {
		t.Fatalf("after a mid-iteration unlink and relink each saw b=%d c=%d d=%d, want 0, %d, %d (b was %d, c %d)",
			got["b"], got["c"], got["d"], d.Ino, d.Ino, b.Ino, c.Ino)
	}

	// The same through the sorted walk: a name linked under the cursor's
	// feet names the inode it links to when the walk reaches it.
	e, _ := s.Create(RootIno, "e", CreateAttrs{})
	var seen []string
	err = s.walkSorted("/", root, func(p []byte, dir *Inode, name string, ino Ino, in *Inode) (bool, error) {
		if dir == nil {
			return true, nil
		}
		seen = append(seen, fmt.Sprintf("%s=%d", name, ino))
		if name == "a" {
			root.frag.link("d", e.Ino)
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("[a=%d c=%d d=%d e=%d]", a.Ino, d.Ino, e.Ino, e.Ino); fmt.Sprint(seen) != want {
		t.Fatalf("walk with a relink under it saw %v, want %s", seen, want)
	}
}

// TestListingAllocations: a warm listing allocates nothing, a cold one
// allocates its snapshot and nothing else (the sort is in place), and the
// fragment did not make a create dearer than it was with a bare map in
// the inode (one Inode plus the amortized map growth).
func TestListingAllocations(t *testing.T) {
	s := NewStore()
	dir, _ := s.Mkdir(RootIno, "d", CreateAttrs{})
	names := make([]string, 3000)
	for i := range names {
		names[i] = fmt.Sprintf("f%05d", i)
	}
	for _, n := range names[:1000] {
		s.Create(dir.Ino, n, CreateAttrs{})
	}
	s.ReadDir(dir.Ino)
	if avg := testing.AllocsPerRun(100, func() { s.ReadDir(dir.Ino) }); avg != 0 {
		t.Fatalf("warm ReadDir allocates %.1f times, want 0", avg)
	}
	st := s.ListStats()
	if st.Listings != 102 || st.Rebuilds != 1 {
		t.Fatalf("102 listings of an unchanged directory: %+v, want 1 rebuild", st)
	}

	s.Create(dir.Ino, names[1000], CreateAttrs{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ReadDir(dir.Ino)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 1 {
		t.Fatalf("cold ReadDir after one create allocates %d times, want 1 (the snapshot)", n)
	}
	if st := s.ListStats(); st.Rebuilds != 2 {
		t.Fatalf("a listing after a create was not rebuilt: %+v", st)
	}

	next := 1001
	avg := testing.AllocsPerRun(1000, func() {
		s.Create(dir.Ino, names[next], CreateAttrs{})
		next++
	})
	if avg != 1 {
		t.Fatalf("Create allocates %.1f times, want 1 (the inode)", avg)
	}
}

var readDirSink []string

// BenchmarkStoreReadDir measures a listing of a directory never listed
// (cold: collect and sort), of an unchanged directory (warm: the shared
// snapshot) and of a directory that changed by one dentry since its last
// listing (the invalidate-only rule: today's cold price, no more).
func BenchmarkStoreReadDir(b *testing.B) {
	build := func(b *testing.B, n int) (*Store, Ino) {
		s := NewStore()
		dir, err := s.Mkdir(RootIno, "d", CreateAttrs{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := s.Create(dir.Ino, fmt.Sprintf("file%06d", i), CreateAttrs{}); err != nil {
				b.Fatal(err)
			}
		}
		return s, dir.Ino
	}
	for _, n := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("cold/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, dir := build(b, n)
				b.StartTimer()
				readDirSink, _ = s.ReadDir(dir)
			}
		})
		b.Run(fmt.Sprintf("warm/%d", n), func(b *testing.B) {
			s, dir := build(b, n)
			s.ReadDir(dir)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				readDirSink, _ = s.ReadDir(dir)
			}
		})
		b.Run(fmt.Sprintf("after-one-create/%d", n), func(b *testing.B) {
			s, dir := build(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.Unlink(dir, "one-more") // the previous round's; absent in the first
				s.Create(dir, "one-more", CreateAttrs{})
				b.StartTimer()
				readDirSink, _ = s.ReadDir(dir)
			}
		})
	}
}
