package client

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
)

// imageOf renders every inode of a client-local image with the
// attributes rollback must restore, in walk order.
func imageOf(t *testing.T, s *namespace.Store) string {
	t.Helper()
	var b strings.Builder
	err := s.Walk(namespace.RootIno, func(path string, in *namespace.Inode) error {
		fmt.Fprintf(&b, "%s ino=%d %v mode=%o uid=%d gid=%d size=%d mtime=%d\n",
			path, in.Ino, in.Type, in.Mode, in.UID, in.GID, in.Size, in.Mtime)
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	return b.String()
}

// specFile is a file the speculative client's image holds: its inode,
// global parent and name; fresh when created in the current batch, and
// stolen when an interferer then took its name globally.
type specFile struct {
	ino           namespace.Ino
	dir           namespace.Ino
	name          string
	fresh, stolen bool
}

// TestSpeculativeRollbackEqualsAcceptedReplay: after a speculative merge
// the client's local image must be exactly what replaying only the
// accepted ops onto an empty image gives — every rejected create, mkdir
// and unlink undone, attributes included. Seeded batches of LocalCreate,
// LocalMkdir and LocalUnlink run against an interferer that takes names
// the client is creating (rejecting the create or mkdir and, through a
// missing parent, everything under it) and unlinks files of earlier
// batches (rejecting the client's unlinks of them). In the "recovered"
// variant the client persists its first batch locally, crashes and
// recovers before that merge, so its image and pre-images are rebuilt
// from the journal.
func TestSpeculativeRollbackEqualsAcceptedReplay(t *testing.T) {
	for _, variant := range []string{"live", "recovered"} {
		crash := variant == "recovered"
		t.Run(variant, func(t *testing.T) {
			rejected := map[journal.EventType]int{}
			for seed := int64(1); seed <= 30; seed++ {
				specRollbackRun(t, seed, crash, rejected)
			}
			// Four batches of a few ops reach every rollback arm, in both
			// variants: the interferer's unlinks start from the second batch.
			for _, typ := range []journal.EventType{journal.EvCreate, journal.EvMkdir, journal.EvUnlink} {
				if rejected[typ] == 0 {
					t.Errorf("no %v was rejected in 30 seeds: the test does not reach its rollback", typ)
				}
			}
		})
	}
}

func specRollbackRun(t *testing.T, seed int64, crash bool, rejected map[journal.EventType]int) {
	rng := rand.New(rand.NewSource(seed))
	cl := newCluster()
	c, intr := cl.client("c0"), cl.client("intr")
	cl.run(t, func(p runtime.Task) {
		if _, err := c.MkdirAll(p, "/job", 0755); err != nil {
			t.Fatalf("seed %d: mkdirall: %v", seed, err)
		}
		if err := decouple(p, c, "/job", decouplePolicy(policy.ConsSpeculative, policy.DurLocal, 1000)); err != nil {
			t.Fatalf("seed %d: decouple: %v", seed, err)
		}
		root, _ := c.DecoupledRoot()
		var accepted []*journal.Event
		names := 0
		fresh := func() string { names++; return fmt.Sprintf("n%d", names) }
		gone := map[namespace.Ino]bool{} // unlinked globally by the interferer
		for batch := 0; batch < 4; batch++ {
			// What the image holds at the start of the batch exists
			// globally too, since only accepted ops remain in it.
			dirs, files := []namespace.Ino{root}, []specFile(nil)
			global := map[namespace.Ino]bool{root: true}
			c.dec.store.Walk(namespace.RootIno, func(_ string, in *namespace.Inode) error {
				switch {
				case in.Ino == namespace.RootIno:
				case in.IsDir():
					dirs = append(dirs, in.Ino)
					global[in.Ino] = true
				default:
					files = append(files, specFile{ino: in.Ino, dir: namespace.Ino(c.dec.globalParent(in.Parent)), name: in.Name})
				}
				return nil
			})
			for _, f := range files {
				if !gone[f.ino] && rng.Float64() < 0.2 {
					if err := intr.Unlink(p, f.dir, f.name); err != nil {
						t.Fatalf("seed %d: interfering unlink of %s: %v", seed, f.name, err)
					}
					gone[f.ino] = true
				}
			}
			for op := 0; op < 3+rng.Intn(8); op++ {
				var unlinkable []int
				for i, f := range files {
					if !(f.fresh && f.stolen) { // the global name is someone else's
						unlinkable = append(unlinkable, i)
					}
				}
				dir, steal := dirs[rng.Intn(len(dirs))], rng.Float64() < 0.3
				switch r := rng.Intn(100); {
				case r < 35 || len(files) == 0 || r >= 50 && len(unlinkable) == 0:
					name := fresh()
					ino, err := c.LocalCreate(p, dir, name, 0644)
					if err != nil {
						t.Fatalf("seed %d: local create: %v", seed, err)
					}
					f := specFile{ino: ino, dir: dir, name: name, fresh: true, stolen: steal && global[dir]}
					if f.stolen {
						if _, err := intr.Create(p, dir, name, 0600); err != nil {
							t.Fatalf("seed %d: interfering create: %v", seed, err)
						}
					}
					files = append(files, f)
				case r < 50:
					name := fresh()
					ino, err := c.LocalMkdir(p, dir, name, 0755)
					if err != nil {
						t.Fatalf("seed %d: local mkdir: %v", seed, err)
					}
					if steal && global[dir] {
						if _, err := intr.Mkdir(p, dir, name, 0700); err != nil {
							t.Fatalf("seed %d: interfering mkdir: %v", seed, err)
						}
					}
					dirs = append(dirs, ino)
				default:
					i := unlinkable[rng.Intn(len(unlinkable))]
					if err := c.LocalUnlink(p, files[i].dir, files[i].name); err != nil {
						t.Fatalf("seed %d: local unlink: %v", seed, err)
					}
					files = append(files[:i], files[i+1:]...)
				}
			}

			if crash && batch == 0 {
				if err := c.LocalPersist(p); err != nil {
					t.Fatalf("seed %d: local persist: %v", seed, err)
				}
				c.Crash(p)
				if err := c.Restart(p); err != nil {
					t.Fatalf("seed %d: restart: %v", seed, err)
				}
				if _, err := c.RecoverLocal(p); err != nil {
					t.Fatalf("seed %d: recover: %v", seed, err)
				}
			}
			events, _ := c.JournalEvents()
			if len(c.dec.undo) != len(events) {
				t.Fatalf("seed %d batch %d: %d pre-images for %d journaled ops", seed, batch, len(c.dec.undo), len(events))
			}
			_, rej, err := c.Merge(p)
			if err != nil {
				t.Fatalf("seed %d batch %d: merge: %v", seed, batch, err)
			}
			for i, ev := range events {
				if len(rej) > 0 && rej[0] == i {
					rejected[ev.Type]++
					rej = rej[1:]
					continue
				}
				accepted = append(accepted, ev)
			}
			replay := &decoupled{root: root, reg: &policy.Policy{}, store: namespace.NewStore()}
			for _, ev := range accepted {
				if _, err := replay.applyLocal(ev); err != nil {
					t.Fatalf("seed %d batch %d: replaying accepted %v: %v", seed, batch, ev, err)
				}
			}
			if got, want := imageOf(t, c.dec.store), imageOf(t, replay.store); got != want {
				t.Fatalf("seed %d batch %d: the rolled-back image differs from a replay of the accepted ops:\n%s\nwant:\n%s",
					seed, batch, got, want)
			}
		}
	})
}

// TestFailedRecoverLocalLeavesContext: a recovery whose rebuild fails
// installs none of what it recovered. The client merges a, then journals
// a create of b and an unlink of a, persists locally and restarts. The
// rebuild replays onto an empty image, where a does not exist, so it fails
// at op 1. Installing the journal before the rebuild left two journaled
// events beside one pre-image and an image holding b; a later rejected op
// would then have restored another op's pre-image.
func TestFailedRecoverLocalLeavesContext(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if _, err := c.MkdirAll(p, "/job", 0755); err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
		if err := decouple(p, c, "/job", decouplePolicy(policy.ConsSpeculative, policy.DurLocal, 100)); err != nil {
			t.Fatalf("decouple: %v", err)
		}
		root, _ := c.DecoupledRoot()
		if _, err := c.LocalCreate(p, root, "a", 0644); err != nil {
			t.Fatalf("local create a: %v", err)
		}
		if _, rej, err := c.Merge(p); err != nil || len(rej) != 0 {
			t.Fatalf("first merge rejected %v, %v", rej, err)
		}
		if _, err := c.LocalCreate(p, root, "b", 0644); err != nil {
			t.Fatalf("local create b: %v", err)
		}
		if err := c.LocalUnlink(p, root, "a"); err != nil {
			t.Fatalf("local unlink a: %v", err)
		}
		if err := c.LocalPersist(p); err != nil {
			t.Fatalf("local persist: %v", err)
		}
		c.Crash(p)
		if err := c.Restart(p); err != nil {
			t.Fatalf("restart: %v", err)
		}
		before := imageOf(t, c.dec.store)

		if _, err := c.RecoverLocal(p); err == nil {
			t.Fatal("recovering a journal that unlinks a merged file succeeded; want the rebuild to fail")
		}
		if j, u := c.dec.jrnl.Len(), len(c.dec.undo); j != 0 || u != 0 {
			t.Fatalf("the failed recovery left %d journaled events beside %d pre-images, want the empty context Restart made", j, u)
		}
		if got := imageOf(t, c.dec.store); got != before {
			t.Fatalf("the failed recovery changed the local image:\n%s\nwant:\n%s", got, before)
		}
		// The context still works: an op journals with its pre-image and merges.
		if _, err := c.LocalCreate(p, root, "c", 0644); err != nil {
			t.Fatalf("local create c: %v", err)
		}
		if n, rej, err := c.Merge(p); err != nil || n != 1 || len(rej) != 0 {
			t.Fatalf("merge after the failed recovery = %d applied, rejected %v, %v; want 1 applied", n, rej, err)
		}
	})
}
