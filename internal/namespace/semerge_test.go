package namespace

import (
	"errors"
	"fmt"
	"math/rand"
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
	err = m.ApplyEvent(&journal.Event{
		Type: journal.EvCreate, Client: "client.a", Parent: 1, Name: "a/b", Ino: 100,
	})
	if !errors.Is(err, ErrInval) || len(m.root.entries) != 0 {
		t.Fatalf("create of \"a/b\": err = %v with %d names summarized, want ErrInval and none", err, len(m.root.entries))
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
