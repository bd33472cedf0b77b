package namespace

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
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

// checkListings lists every directory of s and compares each listing with
// the sorted keys of the directory's dentry map, so it both verifies the
// snapshots and leaves every directory with one for the next mutation to
// invalidate.
func checkListings(t *testing.T, s *Store, step string) {
	t.Helper()
	s.inodes.each(func(in *Inode) {
		ino := in.Ino
		if !in.IsDir() {
			return
		}
		want := make([]string, 0, in.frag.len())
		if in.frag != nil {
			for name := range in.frag.ents {
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
			t.Fatalf("%s: ReadDir(%d) = %v, dentry map has %v", step, ino, got, want)
		}
	})
}

// TestListingFollowsEveryMutation drives random mutations of every kind
// that edits a dentry map and, after each one, compares every directory's
// listing with its map. Every directory holds a snapshot when the next
// step runs, so a mutation that forgot to drop one is caught at once.
func TestListingFollowsEveryMutation(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		pick := func() string { return names[rng.Intn(len(names))] }
		dir := func() Ino {
			dirs := s.Dirs()
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
				s.MustHealthy()
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
		s.MustHealthy()
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

// TestListingAllocations: a warm listing allocates nothing, and the
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

	next := 1000
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
