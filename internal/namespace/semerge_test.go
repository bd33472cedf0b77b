package namespace

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cudele/internal/journal"
)

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for at := 0; at <= len(sub); at++ {
			p := make([]int, 0, n)
			p = append(p, sub[:at]...)
			p = append(p, n-1)
			p = append(p, sub[at:]...)
			out = append(out, p)
		}
	}
	return out
}

// mergeAll replays the given client journals, in the given order, into a
// fresh store and returns the rendered image.
func mergeAll(t *testing.T, journals [][]*journal.Event, order []int) string {
	t.Helper()
	st := NewStore()
	m := NewSEMerger(st)
	for _, ci := range order {
		for _, ev := range journals[ci] {
			if err := m.ApplyEvent(ev); err != nil {
				t.Fatalf("order %v client %d apply %v: %v", order, ci, ev, err)
			}
		}
	}
	img, err := SEImageOf(st, RootIno)
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	return img
}

// assertConverges merges the journals in every permutation and asserts
// all orders render the same image, which it returns.
func assertConverges(t *testing.T, journals [][]*journal.Event) string {
	t.Helper()
	perms := permutations(len(journals))
	want := mergeAll(t, journals, perms[0])
	for _, p := range perms[1:] {
		if got := mergeAll(t, journals, p); got != want {
			t.Fatalf("merge order %v diverges from %v:\n--- want ---\n%s--- got ---\n%s",
				p, perms[0], want, got)
		}
	}
	return want
}

func TestSEMergeFileRaceLatestWins(t *testing.T) {
	journals := [][]*journal.Event{
		{{Type: journal.EvCreate, Seq: 0, Client: "client.a", Parent: 1, Name: "x", Ino: 100, Mode: 0644, Mtime: 10}},
		{{Type: journal.EvCreate, Seq: 0, Client: "client.b", Parent: 1, Name: "x", Ino: 200, Mode: 0600, Mtime: 20}},
	}
	img := assertConverges(t, journals)
	want := "//\n/x ino=200 mode=600 uid=0 gid=0 mtime=20\n"
	if img != want {
		t.Fatalf("image = %q, want %q", img, want)
	}
}

func TestSEMergeTimestampTieBreaksByClient(t *testing.T) {
	journals := [][]*journal.Event{
		{{Type: journal.EvCreate, Seq: 0, Client: "client.a", Parent: 1, Name: "x", Ino: 100, Mtime: 10}},
		{{Type: journal.EvCreate, Seq: 0, Client: "client.b", Parent: 1, Name: "x", Ino: 200, Mtime: 10}},
	}
	img := assertConverges(t, journals)
	// Equal Mtime: lexicographically larger client id wins.
	if want := "//\n/x ino=200 mode=0 uid=0 gid=0 mtime=10\n"; img != want {
		t.Fatalf("image = %q, want %q", img, want)
	}
}

func TestSEMergeUnlinkCreateRace(t *testing.T) {
	// client.a creates x@10 then unlinks it @30; client.b re-creates x@20.
	// The unlink is latest, so x is absent in every order.
	journals := [][]*journal.Event{
		{
			{Type: journal.EvCreate, Seq: 0, Client: "client.a", Parent: 1, Name: "x", Ino: 100, Mtime: 10},
			{Type: journal.EvUnlink, Seq: 1, Client: "client.a", Parent: 1, Name: "x", Mtime: 30},
		},
		{{Type: journal.EvCreate, Seq: 0, Client: "client.b", Parent: 1, Name: "x", Ino: 200, Mtime: 20}},
	}
	if img := assertConverges(t, journals); img != "//\n" {
		t.Fatalf("image = %q, want bare root", img)
	}
	// Flip the timestamps: the create is latest and must survive the
	// tombstone in every order.
	journals[1][0].Mtime = 40
	img := assertConverges(t, journals)
	if want := "//\n/x ino=200 mode=0 uid=0 gid=0 mtime=40\n"; img != want {
		t.Fatalf("image = %q, want %q", img, want)
	}
}

func TestSEMergeDirsMergeStructurally(t *testing.T) {
	// Both clients mkdir /d and populate it; the directory merges and
	// holds the union of children regardless of order.
	journals := [][]*journal.Event{
		{
			{Type: journal.EvMkdir, Seq: 0, Client: "client.a", Parent: 1, Name: "d", Ino: 100, Mtime: 10},
			{Type: journal.EvCreate, Seq: 1, Client: "client.a", Parent: 100, Name: "fa", Ino: 101, Mtime: 11},
		},
		{
			{Type: journal.EvMkdir, Seq: 0, Client: "client.b", Parent: 1, Name: "d", Ino: 200, Mtime: 12},
			{Type: journal.EvCreate, Seq: 1, Client: "client.b", Parent: 200, Name: "fb", Ino: 201, Mtime: 13},
		},
	}
	img := assertConverges(t, journals)
	want := "//\n/d/\n/d/fa ino=101 mode=0 uid=0 gid=0 mtime=11\n/d/fb ino=201 mode=0 uid=0 gid=0 mtime=13\n"
	if img != want {
		t.Fatalf("image = %q, want %q", img, want)
	}
}

func TestSEMergeDirResurrectionKeepsChildren(t *testing.T) {
	// client.a builds /d/fa@10-11. client.b creates a FILE named d@20
	// (beats the dir), client.c re-mkdirs d@30 (beats the file). The
	// surviving state is the resurrected directory with client.a's child
	// — in every one of the 6 merge orders, including those where the
	// subtree is pruned and later revived.
	journals := [][]*journal.Event{
		{
			{Type: journal.EvMkdir, Seq: 0, Client: "client.a", Parent: 1, Name: "d", Ino: 100, Mtime: 10},
			{Type: journal.EvCreate, Seq: 1, Client: "client.a", Parent: 100, Name: "fa", Ino: 101, Mtime: 11},
		},
		{{Type: journal.EvCreate, Seq: 0, Client: "client.b", Parent: 1, Name: "d", Ino: 200, Mtime: 20}},
		{{Type: journal.EvMkdir, Seq: 0, Client: "client.c", Parent: 1, Name: "d", Ino: 300, Mtime: 30}},
	}
	img := assertConverges(t, journals)
	want := "//\n/d/\n/d/fa ino=101 mode=0 uid=0 gid=0 mtime=11\n"
	if img != want {
		t.Fatalf("image = %q, want %q", img, want)
	}
}

// TestSEMergeConvergePruneThenResurrect: within one merge, a file that
// beats a directory prunes the rendered directory, and a later mkdir that
// beats the file renders it again at a new inode. The surviving child and
// every later child must land in that new inode: the merger remembers
// where each directory is rendered, and its own prune has to make it
// forget.
func TestSEMergeConvergePruneThenResurrect(t *testing.T) {
	st := NewStore()
	m := NewSEMerger(st)
	var first Ino
	for i, ev := range []*journal.Event{
		{Type: journal.EvMkdir, Seq: 0, Client: "client.a", Parent: 1, Name: "d", Ino: 100, Mtime: 10},
		{Type: journal.EvCreate, Seq: 1, Client: "client.a", Parent: 100, Name: "fa", Ino: 101, Mtime: 11},
		{Type: journal.EvCreate, Seq: 0, Client: "client.b", Parent: 1, Name: "d", Ino: 200, Mtime: 20},
		{Type: journal.EvMkdir, Seq: 0, Client: "client.c", Parent: 1, Name: "d", Ino: 300, Mtime: 30},
		{Type: journal.EvCreate, Seq: 1, Client: "client.c", Parent: 300, Name: "fc", Ino: 301, Mtime: 31},
	} {
		if err := m.ApplyEvent(ev); err != nil {
			t.Fatalf("event %d (%v %s): %v", i, ev.Type, ev.Name, err)
		}
		if i == 1 {
			d, _ := st.Resolve("/d")
			first = d.Ino
		}
	}
	d, err := st.Resolve("/d")
	if err != nil || !d.IsDir() || d.Ino == first {
		t.Fatalf("/d = %+v, %v; want a directory rendered anew (first at inode %d)", d, err, first)
	}
	for _, name := range []string{"fa", "fc"} {
		if c := st.Child(d.Ino, name); c == nil {
			t.Errorf("/d/%s is not in the resurrected directory", name)
		}
	}
	if problems := st.Check(); len(problems) != 0 {
		t.Fatalf("store check after the merge: %v", problems)
	}
}

func TestSEMergeIdempotent(t *testing.T) {
	evs := []*journal.Event{
		{Type: journal.EvMkdir, Seq: 0, Client: "client.a", Parent: 1, Name: "d", Ino: 100, Mtime: 10},
		{Type: journal.EvCreate, Seq: 1, Client: "client.a", Parent: 100, Name: "f", Ino: 101, Mtime: 11},
		{Type: journal.EvUnlink, Seq: 2, Client: "client.a", Parent: 100, Name: "f", Mtime: 12},
	}
	st := NewStore()
	m := NewSEMerger(st)
	apply := func() {
		for _, ev := range evs {
			if err := m.ApplyEvent(ev); err != nil {
				t.Fatalf("apply %v: %v", ev, err)
			}
		}
	}
	apply()
	once, _ := SEImageOf(st, RootIno)
	apply() // re-merge of the same journal (e.g. recovery re-validation)
	twice, _ := SEImageOf(st, RootIno)
	if once != twice {
		t.Fatalf("re-merge changed the image:\n%s-- vs --\n%s", once, twice)
	}
}

func TestSEMergeRejectsRename(t *testing.T) {
	m := NewSEMerger(NewStore())
	err := m.ApplyEvent(&journal.Event{
		Type: journal.EvRename, Client: "client.a",
		Parent: 1, Name: "a", NewParent: 1, NewName: "b",
	})
	if err == nil {
		t.Fatal("rename accepted in strong-eventual mode")
	}
	// A name no dentry can carry is refused before it is summarized: a
	// summary that can never render would fail its directory's every
	// resurrection.
	for _, ev := range []*journal.Event{
		{Type: journal.EvCreate, Client: "client.a", Parent: 1, Name: "a/b", Ino: 100},
		{Type: journal.EvCreate, Client: "client.a", Parent: 1, Name: "", Ino: 100},
		{Type: journal.EvUnlink, Client: "client.a", Parent: 1, Name: ""},
	} {
		err = m.ApplyEvent(ev)
		if !errors.Is(err, ErrInval) || m.root.entries.Len() != 0 {
			t.Fatalf("%v of %q: err = %v with %d names summarized, want ErrInval and none", ev.Type, ev.Name, err, m.root.entries.Len())
		}
	}
}

// TestSEMergeNativeDirPrunedFirst is why NewSEMerger registers every
// directory of the store up front. /se/X is a directory the store held
// before the merger was built. Journal A creates a file X in /se, whose
// tag beats a directory with no summary, so it prunes /se/X; journal B
// creates f in /se/X. Merged A first, B names a parent that is gone from
// the store: registered only when first named, it would be "never seen"
// in that order alone, and both orders must give one image.
func TestSEMergeNativeDirPrunedFirst(t *testing.T) {
	merge := func(order ...[]*journal.Event) string {
		t.Helper()
		st := NewStore()
		if _, err := st.MkdirAll("/se/X", CreateAttrs{Mode: 0755}); err != nil {
			t.Fatal(err)
		}
		m := NewSEMerger(st)
		for _, evs := range order {
			for _, ev := range evs {
				if err := m.ApplyEvent(ev); err != nil {
					t.Fatalf("apply %v %q: %v", ev.Type, ev.Name, err)
				}
			}
		}
		img, err := SEImageOf(st, RootIno)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	base := NewStore()
	se, _ := base.MkdirAll("/se", CreateAttrs{Mode: 0755})
	x, _ := base.MkdirAll("/se/X", CreateAttrs{Mode: 0755})
	a := []*journal.Event{{Type: journal.EvCreate, Client: "client.a", Parent: uint64(se.Ino), Name: "X", Ino: 100, Mode: 0644, Mtime: 10}}
	b := []*journal.Event{{Type: journal.EvCreate, Client: "client.b", Parent: uint64(x.Ino), Name: "f", Ino: 200, Mode: 0644, Mtime: 20}}
	ab, ba := merge(a, b), merge(b, a)
	if ab != ba {
		t.Fatalf("merge orders diverge:\n--- A, B ---\n%s--- B, A ---\n%s", ab, ba)
	}
	if want := "//\n/se/\n/se/X ino=100 mode=644 uid=0 gid=0 mtime=10\n"; ab != want {
		t.Fatalf("image = %q, want %q", ab, want)
	}
}

// seDirStore builds a store of dirs directories, some nested, holding
// files files spread over them, with a directory and some files removed
// on the way so the inode table has holes.
func seDirStore(t testing.TB, rng *rand.Rand, dirs, files int) *Store {
	st := NewStore()
	ds := []Ino{RootIno}
	for i := 0; i < dirs; i++ {
		d, err := st.Mkdir(ds[rng.Intn(len(ds))], fmt.Sprintf("d%02d", i), CreateAttrs{Mode: 0755})
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d.Ino)
	}
	if _, err := st.Mkdir(RootIno, "gone", CreateAttrs{Mode: 0755}); err != nil {
		t.Fatal(err)
	}
	if err := st.Rmdir(RootIno, "gone"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		parent := ds[1+rng.Intn(dirs)]
		name := fmt.Sprintf("f%06d", i)
		if _, err := st.Create(parent, name, CreateAttrs{Mode: 0644}); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if err := st.Unlink(parent, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// TestNewSEMergerCostsDirectories holds NewSEMerger to the store's
// directories: it allocates the same over 64 directories holding 10 000
// files as over the same directories holding 100 000, where registering
// through Walk built a path for every file. Every directory is registered
// at the path Walk names it by, and nothing else is.
func TestNewSEMergerCostsDirectories(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		st := seDirStore(t, rand.New(rand.NewSource(seed)), 64, 2000)
		want := map[Ino]string{}
		st.Walk(RootIno, func(p string, in *Inode) error {
			if in.IsDir() {
				want[in.Ino] = p
			}
			return nil
		})
		m := NewSEMerger(st)
		if len(m.dirs) != len(want) {
			t.Fatalf("seed %d: %d directories registered, the store holds %d", seed, len(m.dirs), len(want))
		}
		for ino, p := range want {
			if d := m.dirs[ino]; d == nil || d.path != p {
				t.Fatalf("seed %d: directory %d (%s) registered as %v", seed, ino, p, d)
			}
		}
	}
	allocs := func(files int) float64 {
		st := seDirStore(t, rand.New(rand.NewSource(1)), 64, files)
		return testing.AllocsPerRun(5, func() { NewSEMerger(st) })
	}
	if small, big := allocs(10_000), allocs(100_000); small != big {
		t.Fatalf("NewSEMerger allocates %v times over 10 000 files and %v over 100 000 in the same 64 directories", small, big)
	}
}

// TestSEMergeConvergesAllPermutations is the property test of the
// strong-eventual contract: up to 4 decoupled clients generate random op
// mixes (creates, flat mkdirs, unlinks, rmdirs, with deliberately
// colliding names), and merging the journals in EVERY permutation must
// render byte-identical images.
func TestSEMergeConvergesAllPermutations(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nClients := 2 + rng.Intn(3) // 2..4
			journals := make([][]*journal.Event, nClients)
			// A small shared name pool forces same-name races; each
			// client also has a private directory it populates.
			names := []string{"a", "b", "c"}
			for ci := 0; ci < nClients; ci++ {
				client := fmt.Sprintf("client.%d", ci)
				base := Ino(1000 * (ci + 1))
				dirIno := base // the client's own dir, mkdir'd first
				evs := []*journal.Event{{
					Type: journal.EvMkdir, Seq: 0, Client: client,
					Parent: 1, Name: names[rng.Intn(len(names))],
					Ino: uint64(dirIno), Mtime: int64(rng.Intn(100)),
				}}
				nOps := 3 + rng.Intn(6)
				for op := 1; op <= nOps; op++ {
					parent := Ino(1)
					if rng.Intn(2) == 0 {
						parent = dirIno
					}
					ev := &journal.Event{
						Seq: uint64(op), Client: client,
						Parent: uint64(parent),
						Name:   names[rng.Intn(len(names))],
						Mtime:  int64(rng.Intn(100)),
					}
					switch rng.Intn(5) {
					case 0, 1:
						ev.Type = journal.EvCreate
						ev.Ino = uint64(base) + uint64(op)
						ev.Mode = 0644
					case 2:
						ev.Type = journal.EvMkdir
						ev.Ino = uint64(base) + uint64(op)
						ev.Mode = 0755
					case 3:
						ev.Type = journal.EvUnlink
					case 4:
						ev.Type = journal.EvRmdir
					}
					evs = append(evs, ev)
				}
				journals[ci] = evs
			}
			assertConverges(t, journals)
		})
	}
}

// TestSEImageOfMatchesWalk holds SEImageOf, which writes each line from
// its walk's path buffer and sizes the image from digit counts, to an
// image built line by line from Walk's path strings and fmt, on a store
// of nested directories whose files carry large, zero and negative
// attributes — of the whole store and of a subtree.
func TestSEImageOfMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStore()
	dirs := []*Inode{s.Root()}
	next := Ino(1)<<40 - 3
	for i := range 400 {
		parent := dirs[rng.Intn(len(dirs))]
		attrs := CreateAttrs{Mode: uint32(rng.Intn(1 << 12)), UID: uint32(rng.Int63()), GID: uint32(rng.Intn(3))}
		switch rng.Intn(4) {
		case 0:
			attrs.Mtime = -rng.Int63()
		case 1:
			attrs.Mtime = rng.Int63()
		}
		if i%5 == 0 {
			in, err := s.Mkdir(parent.Ino, fmt.Sprintf("d%d", i), attrs)
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, in)
			continue
		}
		next++
		attrs.Ino = next
		if _, err := s.Create(parent.Ino, fmt.Sprintf("f%d", i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	minInt := &Inode{Ino: ^Ino(0), Mode: ^uint32(0), UID: ^uint32(0), GID: ^uint32(0), Mtime: -1 << 63}
	if got, want := seImageLineLen(3, minInt), len(appendSEImageLine(nil, []byte("/ab"), minInt)); got != want {
		t.Fatalf("line length of extreme attributes = %d, want %d", got, want)
	}
	reference := func(root Ino) string {
		var b strings.Builder
		if err := s.Walk(root, func(p string, in *Inode) error {
			if in.IsDir() {
				fmt.Fprintf(&b, "%s/\n", p)
			} else {
				fmt.Fprintf(&b, "%s ino=%d mode=%o uid=%d gid=%d mtime=%d\n", p, in.Ino, in.Mode, in.UID, in.GID, in.Mtime)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	deep := dirs[len(dirs)-1]
	for deep.Parent != RootIno && deep.NumChildren() < 2 {
		deep = s.inodes.get(deep.Parent)
	}
	for _, root := range []Ino{RootIno, dirs[1].Ino, deep.Ino} {
		got, err := SEImageOf(s, root)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(root); got != want {
			t.Fatalf("SEImageOf(%d) differs from the Walk reference:\n--- want ---\n%s--- got ---\n%s", root, want, got)
		}
	}
}
