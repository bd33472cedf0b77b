package namespace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cudele/internal/journal"
)

// seGen generates strong-eventual histories: the journals of 2–4 clients
// that race on a small pool of names. A client names as a parent only a
// directory of the base store or one it made itself earlier in its own
// journal — the causal order a real client's journal has — so its events
// apply under any interleaving with the other clients'.
type seGen struct {
	names []string // dentry names; few, so same-name file/dir races are the rule
	bad   bool     // also emit events the merger must refuse
}

// seBaseParents are the directories of seBase's store.
var seBaseParents = []Ino{RootIno, 2, 3, 4}

// seBase returns a store holding /pre and /pre/sub, the merger mk builds
// over it, and then /late: a directory the merger first hears of when an
// event names it as a parent.
func seBase(t *testing.T, mk func(*Store) journal.Target) (*Store, journal.Target) {
	t.Helper()
	st := NewStore()
	if _, err := st.MkdirAll("/pre/sub", CreateAttrs{Mode: 0755}); err != nil {
		t.Fatal(err)
	}
	m := mk(st)
	late, err := st.Mkdir(RootIno, "late", CreateAttrs{Mode: 0755})
	if err != nil || late.Ino != seBaseParents[3] {
		t.Fatalf("base store: /late = %v, %v", late, err)
	}
	return st, m
}

func (g seGen) journals(rng *rand.Rand) [][]*journal.Event {
	out := make([][]*journal.Event, 2+rng.Intn(3))
	for ci := range out {
		client := fmt.Sprintf("client.%d", ci)
		grant := uint64(1)<<40 + uint64(ci)<<20
		dirs := append([]Ino(nil), seBaseParents...)
		for op, nOps := 0, 6+rng.Intn(10); op < nOps; op++ {
			ev := &journal.Event{
				Seq: uint64(op), Client: client,
				Parent: uint64(dirs[rng.Intn(len(dirs))]),
				Name:   g.names[rng.Intn(len(g.names))],
				Mtime:  int64(rng.Intn(8)), // few values: equal-Mtime ties are common
			}
			switch r := rng.Intn(10); {
			case r < 3:
				ev.Type, ev.Ino, ev.Mode = journal.EvCreate, grant+uint64(op), 0644
			case r < 6:
				// Nested mkdirs: the new directory is a parent from here on,
				// and so is the same-named one another client makes.
				ev.Type, ev.Ino, ev.Mode = journal.EvMkdir, grant+uint64(op), 0755
				dirs = append(dirs, Ino(ev.Ino))
			case r < 8:
				ev.Type = journal.EvUnlink // of a live, a dead or a never-created name
			default:
				ev.Type = journal.EvRmdir // full or empty: a later mkdir resurrects it
			}
			if g.bad {
				switch rng.Intn(40) {
				case 0:
					ev.Parent = 999999 // never seen
				case 1:
					ev.Ino = 0 // a create with no client-assigned inode (a mkdir may)
				case 2:
					ev.Type, ev.NewParent, ev.NewName = journal.EvRename, ev.Parent, "r"
				case 3:
					ev.Type, ev.Ino = journal.EvSetAttr, grant
				case 4:
					ev.Type, ev.Ino, ev.Size = journal.EvAllocRange, grant, 1<<20
				}
			}
			out[ci] = append(out[ci], ev)
		}
	}
	return out
}

// interleave merges the journals into one stream that keeps each client's
// own order and is otherwise random.
func interleave(rng *rand.Rand, journals [][]*journal.Event) []*journal.Event {
	next := make([]int, len(journals))
	var live []int
	for ci, j := range journals {
		if len(j) > 0 {
			live = append(live, ci)
		}
	}
	var out []*journal.Event
	for len(live) > 0 {
		at := rng.Intn(len(live))
		ci := live[at]
		out = append(out, journals[ci][next[ci]])
		if next[ci]++; next[ci] == len(journals[ci]) {
			live = append(live[:at], live[at+1:]...)
		}
	}
	return out
}

// inosByPath renders every path of st with its inode number.
func inosByPath(st *Store) string {
	var b strings.Builder
	st.Walk(RootIno, func(p string, in *Inode) error {
		fmt.Fprintf(&b, "%s %d\n", p, in.Ino)
		return nil
	})
	return b.String()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestSEMergeMatchesReference drives the merger and the path-keyed one it
// replaced (semerge_ref_test.go) with the same interleaved histories, over
// names that also collide with the base store's own directories and with
// events both must refuse. After every event they agree on the error and on
// the store's mutation count; at the end on the image, on a clean scrub.
func TestSEMergeMatchesReference(t *testing.T) {
	gen := seGen{names: []string{"a", "b", "c", "pre", "sub", "late"}, bad: true}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, m := seBase(t, func(st *Store) journal.Target { return NewSEMerger(st) })
		want, ref := seBase(t, func(st *Store) journal.Target { return newRefSEMerger(st) })
		for i, ev := range interleave(rng, gen.journals(rng)) {
			gotErr, wantErr := m.ApplyEvent(ev), ref.ApplyEvent(ev)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("seed %d event %d (%v): error %q, reference %q", seed, i, ev, errText(gotErr), errText(wantErr))
			}
			if got.Version() != want.Version() {
				t.Fatalf("seed %d event %d (%v): store version %d, reference %d", seed, i, ev, got.Version(), want.Version())
			}
		}
		gotImg, _ := SEImageOf(got, RootIno)
		wantImg, _ := SEImageOf(want, RootIno)
		if gotImg != wantImg {
			t.Fatalf("seed %d: image differs from the reference's:\n--- reference ---\n%s--- got ---\n%s", seed, wantImg, gotImg)
		}
		// The image leaves directory inodes out; they are assigned in
		// mutation order, so equal ones mean the same sequence of
		// mutations, resurrections included.
		if gotInos, wantInos := inosByPath(got), inosByPath(want); gotInos != wantInos {
			t.Fatalf("seed %d: inode numbers differ from the reference's:\n--- reference ---\n%s--- got ---\n%s", seed, wantInos, gotInos)
		}
		if problems := got.Check(); len(problems) > 0 {
			t.Fatalf("seed %d: merged store unhealthy: %v", seed, problems)
		}
	}
}

// TestSEMergeLaws checks the three obligations of a state-based CRDT
// (Gomes et al., arXiv 1707.01747) on generated histories: whatever order
// the events are delivered in — every permutation of the whole journals,
// and twenty random event-level interleavings — one image results
// (the joins commute and associate), and delivering any journal a second
// time changes nothing (they are idempotent).
//
// The clients' names never collide with the base store's own directories:
// those have no summary, so one that a merge order prunes cannot be
// resurrected, which is a stated limit of the design and not a law.
func TestSEMergeLaws(t *testing.T) {
	gen := seGen{names: []string{"a", "b", "c"}}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		journals := gen.journals(rng)
		var orders [][]*journal.Event
		for _, perm := range permutations(len(journals)) {
			var evs []*journal.Event
			for _, ci := range perm {
				evs = append(evs, journals[ci]...)
			}
			orders = append(orders, evs)
		}
		for i := 0; i < 20; i++ {
			orders = append(orders, interleave(rng, journals))
		}
		var want string
		for oi, evs := range orders {
			st, m := seBase(t, func(st *Store) journal.Target { return NewSEMerger(st) })
			for _, ev := range evs {
				if err := m.ApplyEvent(ev); err != nil {
					t.Fatalf("seed %d order %d: apply %v: %v", seed, oi, ev, err)
				}
			}
			img, err := SEImageOf(st, RootIno)
			if err != nil {
				t.Fatalf("seed %d order %d: image: %v", seed, oi, err)
			}
			if oi == 0 {
				want = img
			} else if img != want {
				t.Fatalf("seed %d: delivery order %d diverges from order 0:\n--- order 0 ---\n%s--- order %d ---\n%s", seed, oi, want, oi, img)
			}
			if problems := st.Check(); len(problems) > 0 {
				t.Fatalf("seed %d order %d: merged store unhealthy: %v", seed, oi, problems)
			}
			// Idempotence, on one journal per order so every journal
			// and every kind of order gets its turn.
			version := st.Version()
			for _, ev := range journals[oi%len(journals)] {
				if err := m.ApplyEvent(ev); err != nil {
					t.Fatalf("seed %d order %d: re-apply %v: %v", seed, oi, ev, err)
				}
			}
			if again, _ := SEImageOf(st, RootIno); again != want || st.Version() != version {
				t.Fatalf("seed %d order %d: a second delivery of journal %d changed the store (version %d -> %d):\n%s",
					seed, oi, oi%len(journals), version, st.Version(), again)
			}
		}
	}
}
