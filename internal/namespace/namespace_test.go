package namespace

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cudele/internal/journal"
)

func TestNewStoreHasRoot(t *testing.T) {
	s := NewStore()
	root := s.Root()
	if root == nil || root.Ino != RootIno || !root.IsDir() {
		t.Fatalf("root = %+v", root)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
	if p, err := s.PathOf(RootIno); err != nil || p != "/" {
		t.Fatalf("path of root = %q, %v", p, err)
	}
}

func TestCreateLookup(t *testing.T) {
	s := NewStore()
	in, err := s.Create(RootIno, "file0", CreateAttrs{Mode: 0644, UID: 10, GID: 20})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if in.Ino == 0 || in.IsDir() {
		t.Fatalf("created inode = %+v", in)
	}
	got, err := s.Lookup(RootIno, "file0")
	if err != nil || got.Ino != in.Ino {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if got.Mode != 0644 || got.UID != 10 || got.GID != 20 {
		t.Fatalf("attrs = %+v", got)
	}
}

func TestCreateDuplicate(t *testing.T) {
	s := NewStore()
	s.Create(RootIno, "f", CreateAttrs{})
	if _, err := s.Create(RootIno, "f", CreateAttrs{}); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create err = %v", err)
	}
}

// TestLookupMissError: a miss renders its text lazily, and that text and
// the sentinel it wraps are what fmt.Errorf with %w produced before.
func TestLookupMissError(t *testing.T) {
	s := NewStore()
	f, _ := s.Create(RootIno, "f", CreateAttrs{})
	for _, c := range []struct {
		parent Ino
		name   string
		is     error
	}{{RootIno, `no"pe`, ErrNotExist}, {f.Ino, "x", ErrNotDir}} {
		_, err := s.Lookup(c.parent, c.name)
		want := fmt.Errorf("lookup %q in inode %d: %w", c.name, c.parent, c.is)
		if !errors.Is(err, c.is) || err.Error() != want.Error() {
			t.Errorf("lookup %q in %d: err = %v, want %v", c.name, c.parent, err, want)
		}
	}
}

// TestChildAllocatesNothing pins Child as the existence probe: it agrees
// with Lookup on a hit, a miss, a parent that is a file and one that is
// missing, and none of the four allocates.
func TestChildAllocatesNothing(t *testing.T) {
	s := NewStore()
	d, _ := s.Mkdir(RootIno, "d", CreateAttrs{})
	f, _ := s.Create(d.Ino, "f", CreateAttrs{})
	for _, c := range []struct {
		parent Ino
		name   string
	}{{d.Ino, "f"}, {d.Ino, "nope"}, {f.Ino, "x"}, {999, "x"}} {
		want, _ := s.Lookup(c.parent, c.name)
		if got := s.Child(c.parent, c.name); got != want {
			t.Errorf("Child(%d, %q) = %v, Lookup finds %v", c.parent, c.name, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Child(c.parent, c.name) }); allocs != 0 {
			t.Errorf("Child(%d, %q) allocates %.0f times, want 0", c.parent, c.name, allocs)
		}
	}
}

func TestCreateBadNames(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"", "a/b"} {
		if _, err := s.Create(RootIno, name, CreateAttrs{}); !errors.Is(err, ErrInval) {
			t.Errorf("create %q err = %v, want ErrInval", name, err)
		}
	}
}

func TestCreateInFile(t *testing.T) {
	s := NewStore()
	f, _ := s.Create(RootIno, "f", CreateAttrs{})
	if _, err := s.Create(f.Ino, "child", CreateAttrs{}); !errors.Is(err, ErrNotDir) {
		t.Fatalf("create in file err = %v", err)
	}
	if _, err := s.Lookup(f.Ino, "x"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("lookup in file err = %v", err)
	}
}

func TestCreateInMissingParent(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(999, "f", CreateAttrs{}); !errors.Is(err, ErrNotExist) {
		t.Fatalf("create in missing parent err = %v", err)
	}
}

func TestCreateWithExplicitIno(t *testing.T) {
	s := NewStore()
	in, err := s.Create(RootIno, "f", CreateAttrs{Ino: 5000})
	if err != nil || in.Ino != 5000 {
		t.Fatalf("explicit ino create = %+v, %v", in, err)
	}
	// Colliding explicit ino fails.
	if _, err := s.Create(RootIno, "g", CreateAttrs{Ino: 5000}); !errors.Is(err, ErrExist) {
		t.Fatalf("colliding ino err = %v", err)
	}
	// Server allocation skips the used number.
	for i := 0; i < 6000; i++ {
		if _, err := s.Create(RootIno, fmt.Sprintf("x%d", i), CreateAttrs{}); err != nil {
			t.Fatalf("bulk create %d: %v", i, err)
		}
	}
	if s.Len() != 6002 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestAllocSkipsReservedRanges(t *testing.T) {
	s := NewStore()
	if err := s.ReserveRange(2, 100); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	in, _ := s.Create(RootIno, "f", CreateAttrs{})
	if in.Ino >= 2 && in.Ino < 102 {
		t.Fatalf("allocated ino %d inside reserved range", in.Ino)
	}
	if err := s.ReserveRange(0, 10); !errors.Is(err, ErrInval) {
		t.Fatalf("reserve lo=0 err = %v", err)
	}
	if err := s.ReserveRange(5, 0); !errors.Is(err, ErrInval) {
		t.Fatalf("reserve n=0 err = %v", err)
	}
	if s.ReservedRanges() != 1 {
		t.Fatalf("reserved ranges = %d", s.ReservedRanges())
	}
}

func TestMkdirAndResolve(t *testing.T) {
	s := NewStore()
	d1, err := s.Mkdir(RootIno, "a", CreateAttrs{Mode: 0755})
	if err != nil || !d1.IsDir() {
		t.Fatalf("mkdir: %+v, %v", d1, err)
	}
	d2, _ := s.Mkdir(d1.Ino, "b", CreateAttrs{Mode: 0755})
	f, _ := s.Create(d2.Ino, "c", CreateAttrs{})
	got, err := s.Resolve("/a/b/c")
	if err != nil || got.Ino != f.Ino {
		t.Fatalf("resolve = %+v, %v", got, err)
	}
	if p, _ := s.PathOf(f.Ino); p != "/a/b/c" {
		t.Fatalf("pathof = %q", p)
	}
	if _, err := s.Resolve("/a/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("resolve missing err = %v", err)
	}
}

func TestMkdirAll(t *testing.T) {
	s := NewStore()
	d, err := s.MkdirAll("/x/y/z", CreateAttrs{Mode: 0755})
	if err != nil {
		t.Fatalf("mkdirall: %v", err)
	}
	if p, _ := s.PathOf(d.Ino); p != "/x/y/z" {
		t.Fatalf("mkdirall path = %q", p)
	}
	// Idempotent.
	d2, err := s.MkdirAll("/x/y/z", CreateAttrs{})
	if err != nil || d2.Ino != d.Ino {
		t.Fatalf("second mkdirall = %+v, %v", d2, err)
	}
	// Fails through a file.
	s.Create(RootIno, "f", CreateAttrs{})
	if _, err := s.MkdirAll("/f/sub", CreateAttrs{}); !errors.Is(err, ErrNotDir) {
		t.Fatalf("mkdirall through file err = %v", err)
	}
}

func TestSplitPath(t *testing.T) {
	cases := map[string][]string{
		"/":       nil,
		"":        nil,
		"/a":      {"a"},
		"a/b":     {"a", "b"},
		"/a//b/":  {"a", "b"},
		"/a/../b": {"b"},
		"/./a":    {"a"},
	}
	for in, want := range cases {
		got := collect(in)
		if len(got) != len(want) {
			t.Errorf("SplitIter(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("SplitIter(%q) = %v, want %v", in, got, want)
			}
		}
	}
}

func TestUnlink(t *testing.T) {
	s := NewStore()
	s.Create(RootIno, "f", CreateAttrs{})
	if err := s.Unlink(RootIno, "f"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if _, err := s.Lookup(RootIno, "f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("lookup after unlink err = %v", err)
	}
	if err := s.Unlink(RootIno, "f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double unlink err = %v", err)
	}
	d, _ := s.Mkdir(RootIno, "d", CreateAttrs{})
	_ = d
	if err := s.Unlink(RootIno, "d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("unlink dir err = %v", err)
	}
}

func TestRmdir(t *testing.T) {
	s := NewStore()
	d, _ := s.Mkdir(RootIno, "d", CreateAttrs{})
	s.Create(d.Ino, "f", CreateAttrs{})
	if err := s.Rmdir(RootIno, "d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	s.Unlink(d.Ino, "f")
	if err := s.Rmdir(RootIno, "d"); err != nil {
		t.Fatalf("rmdir: %v", err)
	}
	s.Create(RootIno, "f", CreateAttrs{})
	if err := s.Rmdir(RootIno, "f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("rmdir file err = %v", err)
	}
}

func TestRename(t *testing.T) {
	s := NewStore()
	d1, _ := s.Mkdir(RootIno, "d1", CreateAttrs{})
	d2, _ := s.Mkdir(RootIno, "d2", CreateAttrs{})
	f, _ := s.Create(d1.Ino, "f", CreateAttrs{})
	if err := s.Rename(d1.Ino, "f", d2.Ino, "g"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	got, err := s.Resolve("/d2/g")
	if err != nil || got.Ino != f.Ino {
		t.Fatalf("after rename: %+v, %v", got, err)
	}
	if _, err := s.Lookup(d1.Ino, "f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("source still present: %v", err)
	}
	if p, _ := s.PathOf(f.Ino); p != "/d2/g" {
		t.Fatalf("path after rename = %q", p)
	}
}

func TestRenameReplace(t *testing.T) {
	s := NewStore()
	s.Create(RootIno, "a", CreateAttrs{})
	s.Create(RootIno, "b", CreateAttrs{})
	if err := s.Rename(RootIno, "a", RootIno, "b"); err != nil {
		t.Fatalf("replace rename: %v", err)
	}
	names, _ := s.ReadDir(RootIno)
	if len(names) != 1 || names[0] != "b" {
		t.Fatalf("after replace: %v", names)
	}
}

func TestRenameEdgeCases(t *testing.T) {
	s := NewStore()
	d, _ := s.Mkdir(RootIno, "d", CreateAttrs{})
	sub, _ := s.Mkdir(d.Ino, "sub", CreateAttrs{})
	s.Create(RootIno, "f", CreateAttrs{})

	// Directory under its own descendant.
	if err := s.Rename(RootIno, "d", sub.Ino, "oops"); !errors.Is(err, ErrInval) {
		t.Fatalf("cycle rename err = %v", err)
	}
	// File over non-empty directory.
	if err := s.Rename(RootIno, "f", RootIno, "d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("file-over-dir err = %v", err)
	}
	// Directory over file.
	if err := s.Rename(RootIno, "d", RootIno, "f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("dir-over-file err = %v", err)
	}
	// No-op rename.
	if err := s.Rename(RootIno, "f", RootIno, "f"); err != nil {
		t.Fatalf("noop rename err = %v", err)
	}
	// Missing source.
	if err := s.Rename(RootIno, "ghost", RootIno, "x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing src err = %v", err)
	}
	// Bad destination name.
	if err := s.Rename(RootIno, "f", RootIno, "a/b"); !errors.Is(err, ErrInval) {
		t.Fatalf("bad dst err = %v", err)
	}
	// Empty directory over empty directory is allowed.
	s.Mkdir(RootIno, "e1", CreateAttrs{})
	s.Mkdir(RootIno, "e2", CreateAttrs{})
	if err := s.Rename(RootIno, "e1", RootIno, "e2"); err != nil {
		t.Fatalf("empty-dir-over-empty-dir: %v", err)
	}
}

func TestSetAttr(t *testing.T) {
	s := NewStore()
	f, _ := s.Create(RootIno, "f", CreateAttrs{Mode: 0644})
	if err := s.SetAttr(f.Ino, 0600, 1, 2, 4096, 99); err != nil {
		t.Fatalf("setattr: %v", err)
	}
	got, _ := s.Get(f.Ino)
	if got.Mode != 0600 || got.UID != 1 || got.GID != 2 || got.Size != 4096 || got.Mtime != 99 {
		t.Fatalf("after setattr: %+v", got)
	}
	if err := s.SetAttr(12345, 0, 0, 0, 0, 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("setattr missing err = %v", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"c", "a", "b"} {
		s.Create(RootIno, n, CreateAttrs{})
	}
	names, err := s.ReadDir(RootIno)
	if err != nil || len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	f, _ := s.Lookup(RootIno, "a")
	if _, err := s.ReadDir(f.Ino); !errors.Is(err, ErrNotDir) {
		t.Fatalf("readdir file err = %v", err)
	}
}

func TestWalk(t *testing.T) {
	s := NewStore()
	s.MkdirAll("/a/b", CreateAttrs{})
	s.Create(RootIno, "f", CreateAttrs{})
	ab, _ := s.Resolve("/a/b")
	s.Create(ab.Ino, "deep", CreateAttrs{})
	var paths []string
	err := s.Walk(RootIno, func(p string, in *Inode) error {
		paths = append(paths, p)
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	want := []string{"/", "/a", "/a/b", "/a/b/deep", "/f"}
	if len(paths) != len(want) {
		t.Fatalf("walk = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("walk = %v, want %v", paths, want)
		}
	}
}

func TestApplyEventJournalRoundTrip(t *testing.T) {
	// Build a namespace via direct ops, record the same ops as journal
	// events, replay onto a fresh store, and require equality — the
	// core merge invariant of the paper.
	direct := NewStore()
	j := journal.New(1024)

	dir, _ := direct.Mkdir(RootIno, "job", CreateAttrs{Mode: 0755})
	j.Append(&journal.Event{Type: journal.EvMkdir, Client: "c0",
		Parent: uint64(RootIno), Name: "job", Ino: uint64(dir.Ino), Mode: 0755})
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("f%03d", i)
		f, _ := direct.Create(dir.Ino, name, CreateAttrs{Mode: 0644})
		j.Append(&journal.Event{Type: journal.EvCreate, Client: "c0",
			Parent: uint64(dir.Ino), Name: name, Ino: uint64(f.Ino), Mode: 0644})
	}
	direct.Unlink(dir.Ino, "f007")
	j.Append(&journal.Event{Type: journal.EvUnlink, Client: "c0",
		Parent: uint64(dir.Ino), Name: "f007"})

	replayed := NewStore()
	n, err := journal.Replay(j.Events(), replayed)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != 52 {
		t.Fatalf("replayed %d events", n)
	}
	if !Equal(direct, replayed) {
		t.Fatal("replayed namespace differs from directly-built namespace")
	}
}

func TestApplyEventInterfereOverwrite(t *testing.T) {
	// With interfere "allow", an interfering client's file is replaced
	// by the decoupled namespace's create at merge time (paper §III-C).
	s := NewStore()
	s.Create(RootIno, "result", CreateAttrs{Mode: 0400}) // interferer's file
	ev := &journal.Event{Type: journal.EvCreate, Client: "job",
		Parent: uint64(RootIno), Name: "result", Ino: 7777, Mode: 0644}
	if err := s.ApplyEvent(ev); err != nil {
		t.Fatalf("apply over interfering file: %v", err)
	}
	got, _ := s.Lookup(RootIno, "result")
	if got.Ino != 7777 || got.Mode != 0644 {
		t.Fatalf("merge did not take priority: %+v", got)
	}
}

func TestApplyEventMkdirIdempotent(t *testing.T) {
	s := NewStore()
	ev := &journal.Event{Type: journal.EvMkdir, Client: "c", Parent: uint64(RootIno), Name: "d", Ino: 500, Mode: 0755}
	if err := s.ApplyEvent(ev); err != nil {
		t.Fatalf("first mkdir: %v", err)
	}
	ev2 := &journal.Event{Type: journal.EvMkdir, Client: "c2", Parent: uint64(RootIno), Name: "d", Ino: 501, Mode: 0755}
	if err := s.ApplyEvent(ev2); err != nil {
		t.Fatalf("second mkdir not idempotent: %v", err)
	}
}

func TestApplyEventAllTypes(t *testing.T) {
	s := NewStore()
	events := []*journal.Event{
		{Type: journal.EvMkdir, Parent: uint64(RootIno), Name: "d", Ino: 100, Mode: 0755},
		{Type: journal.EvCreate, Parent: 100, Name: "f", Ino: 101, Mode: 0644},
		{Type: journal.EvSetAttr, Ino: 101, Mode: 0600, Size: 42},
		{Type: journal.EvRename, Parent: 100, Name: "f", NewParent: uint64(RootIno), NewName: "g"},
		{Type: journal.EvRmdir, Parent: uint64(RootIno), Name: "d"},
		{Type: journal.EvUnlink, Parent: uint64(RootIno), Name: "g"},
		{Type: journal.EvAllocRange, Ino: 5000, Size: 100, Client: "c"},
	}
	for i, ev := range events {
		if err := s.ApplyEvent(ev); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev.Type, err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("len after full lifecycle = %d, want 1 (root)", s.Len())
	}
	if s.ReservedRanges() != 1 {
		t.Fatalf("reserved = %d", s.ReservedRanges())
	}
	// Unknown event type errors.
	if err := s.ApplyEvent(&journal.Event{Type: journal.EventType(99)}); err == nil {
		t.Fatal("unknown event type applied")
	}
}

// Property: a random sequence of valid operations applied both directly
// and via journal replay yields identical namespaces.
func TestDirectVsReplayQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		direct := NewStore()
		j := journal.New(4096)

		dirs := []Ino{RootIno}
		var files []struct {
			parent Ino
			name   string
		}
		nextIno := uint64(1000)

		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0: // mkdir
				parent := dirs[rng.Intn(len(dirs))]
				name := fmt.Sprintf("d%d", op)
				nextIno++
				if _, err := direct.Mkdir(parent, name, CreateAttrs{Ino: Ino(nextIno), Mode: 0755}); err != nil {
					continue
				}
				j.Append(&journal.Event{Type: journal.EvMkdir, Parent: uint64(parent), Name: name, Ino: nextIno, Mode: 0755})
				dirs = append(dirs, Ino(nextIno))
			case 1, 2: // create
				parent := dirs[rng.Intn(len(dirs))]
				name := fmt.Sprintf("f%d", op)
				nextIno++
				if _, err := direct.Create(parent, name, CreateAttrs{Ino: Ino(nextIno), Mode: 0644}); err != nil {
					continue
				}
				j.Append(&journal.Event{Type: journal.EvCreate, Parent: uint64(parent), Name: name, Ino: nextIno, Mode: 0644})
				files = append(files, struct {
					parent Ino
					name   string
				}{parent, name})
			case 3: // unlink
				if len(files) == 0 {
					continue
				}
				i := rng.Intn(len(files))
				f := files[i]
				if err := direct.Unlink(f.parent, f.name); err != nil {
					continue
				}
				j.Append(&journal.Event{Type: journal.EvUnlink, Parent: uint64(f.parent), Name: f.name})
				files = append(files[:i], files[i+1:]...)
			}
		}
		replayed := NewStore()
		if _, err := journal.Replay(j.Events(), replayed); err != nil {
			return false
		}
		return Equal(direct, replayed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// pathOfJoin is PathOf as it was before it sized its one buffer: the
// names collected leaf first, reversed and joined.
func pathOfJoin(s *Store, ino Ino) (string, error) {
	if ino == RootIno {
		return "/", nil
	}
	var parts []string
	cur, err := s.Get(ino)
	if err != nil {
		return "", err
	}
	for cur.Ino != RootIno {
		parts = append(parts, cur.Name)
		if cur, err = s.Get(cur.Parent); err != nil {
			return "", err
		}
	}
	slices.Reverse(parts)
	return "/" + strings.Join(parts, "/"), nil
}

// TestPathOfMatchesJoin: on random trees PathOf names every inode as the
// join of its ancestors' names did, errs where it did, and allocates only
// the path once the path has two components or more.
func TestPathOfMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for tree := 0; tree < 20; tree++ {
		s := NewStore()
		dirs := []Ino{RootIno}
		var all []Ino
		for i := 0; i < 300; i++ {
			parent := dirs[rng.Intn(len(dirs))]
			name := strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(12)) + fmt.Sprint(i)
			if rng.Intn(3) == 0 {
				in, err := s.Create(parent, name, CreateAttrs{})
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, in.Ino)
				continue
			}
			in, err := s.Mkdir(parent, name, CreateAttrs{Mode: 0755})
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, in.Ino)
			all = append(all, in.Ino)
		}
		all = append(all, RootIno, 1<<50) // the root, and an inode that does not exist
		for _, ino := range all {
			got, gerr := s.PathOf(ino)
			want, werr := pathOfJoin(s, ino)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("tree %d ino %d: PathOf = %q, %v; join gives %q, %v", tree, ino, got, gerr, want, werr)
			}
			if gerr != nil || strings.Count(got, "/") < 2 {
				continue
			}
			if allocs := testing.AllocsPerRun(10, func() { s.PathOf(ino) }); allocs != 1 {
				t.Fatalf("PathOf(%q) allocates %v times, want 1", got, allocs)
			}
		}
	}
}
