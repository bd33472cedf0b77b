package monitor

import (
	"errors"
	"fmt"
	"math/rand"
	gopath "path"
	"slices"
	"testing"
	"time"

	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
	"cudele/internal/transport"
)

// newPlaceCluster builds a cluster of ranks on a seeded simulator with
// client c0's session open on every rank, its object store and its
// monitor.
func newPlaceCluster(seed int64, ranks int) (runtime.Runtime, *rados.Cluster, *mds.Cluster, *Monitor) {
	eng := sim.NewEngine(seed)
	obj := rados.New(eng, model.Default())
	cl := mds.NewCluster(eng, model.Default(), obj, ranks)
	for i := range ranks {
		cl.Rank(i).OpenSession("c0")
	}
	return eng, obj, cl, New(eng, cl)
}

// TestClusterRoutesPlacedSubtree pins /proj on rank 1 of a 3-rank cluster
// and checks that requests routed by path land only on the owning rank.
func TestClusterRoutesPlacedSubtree(t *testing.T) {
	eng, _, cl, m := newPlaceCluster(7, 3)
	run(t, eng, func(p runtime.Task) {
		if _, err := cl.Rank(0).Store().MkdirAll("/proj", namespace.CreateAttrs{Mode: 0755}); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := m.Place(p, "/proj", 1); err != nil {
			t.Fatalf("place: %v", err)
		}
		before := make([]uint64, cl.Ranks())
		for i := 0; i < cl.Ranks(); i++ {
			before[i] = cl.Rank(i).Metrics().Requests
		}

		in, err := cl.Rank(1).Store().Resolve("/proj")
		if err != nil {
			t.Fatalf("subtree not exported to rank 1: %v", err)
		}
		r := cl.Call(p, &mds.Request{
			Op: mds.OpCreate, Client: "c0", Parent: in.Ino, Name: "f", Mode: 0644,
			Route: "/proj",
		}).(*mds.Reply)
		if r.Err != nil {
			t.Fatalf("routed create: %v", r.Err)
		}

		if got := cl.Rank(1).Metrics().Requests - before[1]; got != 1 {
			t.Errorf("rank 1 served %d ops, want 1", got)
		}
		for _, i := range []int{0, 2} {
			if got := cl.Rank(i).Metrics().Requests - before[i]; got != 0 {
				t.Errorf("rank %d served %d ops, want 0", i, got)
			}
		}
		// The file exists on the owning rank only.
		if _, err := cl.Rank(1).Store().Lookup(in.Ino, "f"); err != nil {
			t.Errorf("file missing on owning rank: %v", err)
		}
		if _, err := cl.Rank(0).Store().Resolve("/proj/f"); err == nil {
			t.Error("file visible on rank 0, which no longer owns /proj")
		}
	})
}

// reachByInode sends a GetAttr of ino with no route through the cluster
// and, as a client does, re-sends it by the path each redirect names. It
// returns the reply, the rank that served it (-1 for none) and the
// redirects it took.
func reachByInode(p runtime.Task, cl *mds.Cluster, ino namespace.Ino) (*mds.Reply, int, int) {
	served := func(r int) uint64 { return cl.Rank(r).Metrics().ByOp[mds.OpGetAttr] }
	before := make([]uint64, cl.Ranks())
	for r := range before {
		before[r] = served(r)
	}
	req := &mds.Request{Op: mds.OpGetAttr, Client: "c0", Ino: ino}
	reply := cl.Call(p, req).(*mds.Reply)
	redirects := 0
	for wr, ok := transport.IsRedirect(reply.Err); ok && redirects < 8; wr, ok = transport.IsRedirect(reply.Err) {
		redirects++
		req.Route = wr.Path
		reply = cl.Call(p, req).(*mds.Reply)
	}
	for r := range before {
		if served(r) != before[r] {
			return reply, r, redirects
		}
	}
	return reply, -1, redirects
}

// TestRoutePlaceRefusesFilesAndFilesRouteByParent: over generated trees
// and placements on a three-rank cluster, Place refuses a path that
// resolves to a file, on the same-rank branch and the cross-rank one,
// and leaves the table as it was; so a file is never a placement root,
// and every file's path and its parent's give the same RankFor and
// SubtreeFor — a file's owner and heat cell are its directory's. And a
// request that names a file by inode alone, which goes to the inode's
// band (rank 0 here, which made every file), reaches the file's owner
// after every placement, redirected at most once: rank 0 holds the file
// or the records of the exports that took it away, and either gives the
// file's path, which the table places.
func TestRoutePlaceRefusesFilesAndFilesRouteByParent(t *testing.T) {
	const ranks = 3
	for seed := int64(1); seed <= 20; seed++ {
		eng, _, cl, m := newPlaceCluster(seed, ranks)
		rng := rand.New(rand.NewSource(seed))
		dirs := []string{"/"}
		var files []string
		fileIno := make(map[string]namespace.Ino)
		st := cl.Rank(0).Store()
		for i := 0; i < 24; i++ {
			parent := dirs[rng.Intn(len(dirs))]
			if rng.Intn(2) == 0 {
				path := gopath.Join(parent, fmt.Sprintf("d%d", i))
				if _, err := st.MkdirAll(path, namespace.CreateAttrs{Mode: 0755}); err != nil {
					t.Fatal(err)
				}
				dirs = append(dirs, path)
				continue
			}
			dir, err := st.Resolve(parent)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("f%d", i)
			in, err := st.Create(dir.Ino, name, namespace.CreateAttrs{Mode: 0644})
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, gopath.Join(parent, name))
			fileIno[files[len(files)-1]] = in.Ino
		}
		if len(files) == 0 {
			continue
		}
		tb := cl.Table()
		run(t, eng, func(p runtime.Task) {
			for step := 0; step < 16; step++ {
				file := files[rng.Intn(len(files))]
				owner := tb.RankFor(file)
				for _, rank := range []int{owner, (owner + 1 + rng.Intn(ranks-1)) % ranks} {
					before := tb.Paths()
					if err := m.Place(p, file, rank); !errors.Is(err, namespace.ErrNotDir) {
						t.Errorf("seed %d: place file %s on rank %d (owner %d): %v, want ErrNotDir", seed, file, rank, owner, err)
					}
					if after := tb.Paths(); !slices.Equal(before, after) {
						t.Errorf("seed %d: refused place of %s moved the table %v -> %v", seed, file, before, after)
					}
				}
				if dir := dirs[rng.Intn(len(dirs))]; dir != "/" {
					if err := m.Place(p, dir, rng.Intn(ranks)); err != nil {
						t.Errorf("seed %d: place %s: %v", seed, dir, err)
					}
				}
				for _, f := range files {
					dir := gopath.Dir(f)
					if a, b := tb.RankFor(dir), tb.RankFor(f); a != b {
						t.Errorf("seed %d, placements %v: RankFor(%s) = %d, RankFor(%s) = %d", seed, tb.Paths(), dir, a, f, b)
					}
					if a, b := tb.SubtreeFor(dir), tb.SubtreeFor(f); a != b {
						t.Errorf("seed %d, placements %v: SubtreeFor(%s) = %s, SubtreeFor(%s) = %s", seed, tb.Paths(), dir, a, f, b)
					}
					reply, rank, redirects := reachByInode(p, cl, fileIno[f])
					if owner := tb.RankFor(f); reply.Err != nil || reply.Ino != fileIno[f] || rank != owner || redirects > 1 {
						t.Errorf("seed %d, placements %v: getattr of %s by inode: %v from rank %d after %d redirects, want its attributes from rank %d after at most 1",
							seed, tb.Paths(), f, reply.Err, rank, redirects, owner)
					}
				}
			}
		})
	}
}

// TestInodeRequestFollowsRenamedMove: rank 0 makes /a/x/f and places /a
// on rank 1, which renames /a/x to /a/y and places /a/y on rank 2. A
// getattr of f by inode alone goes to rank 0, the inode's band, whose
// export record knows f by the path it left with, /a/x/f; the table gives
// that path to rank 1, which does not hold f either and places it by its
// own record, /a/y/f, on rank 2: two redirects, and rank 2 answers.
func TestInodeRequestFollowsRenamedMove(t *testing.T) {
	eng, _, cl, m := newPlaceCluster(5, 3)
	populate(t, eng, cl.Rank(0), "/a/x", 1)
	f, err := cl.Rank(0).Store().Resolve("/a/x/f00")
	if err != nil {
		t.Fatal(err)
	}
	run(t, eng, func(p runtime.Task) {
		err := m.Place(p, "/a", 1)
		if err == nil {
			a, _ := cl.Rank(1).Store().Resolve("/a")
			err = cl.Call(p, &mds.Request{Op: mds.OpRename, Client: "c0", Route: "/a",
				Parent: a.Ino, Name: "x", NewParent: a.Ino, NewName: "y"}).(*mds.Reply).Err
		}
		if err == nil {
			err = m.Place(p, "/a/y", 2)
		}
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		reply, rank, redirects := reachByInode(p, cl, f.Ino)
		if reply.Err != nil || reply.Ino != f.Ino || rank != 2 || redirects != 2 {
			t.Errorf("getattr of /a/y/f00 by inode: %v from rank %d after %d redirects, want its attributes from rank 2 after 2", reply.Err, rank, redirects)
		}
	})
}

// TestPlaceOnOwnerPinsWithoutExport: a Place onto the rank that owns the
// subtree moves nothing. It pins the subtree in the table under one
// commit latency and one epoch, and it freezes, exports and writes
// nothing.
func TestPlaceOnOwnerPinsWithoutExport(t *testing.T) {
	eng, obj, cl, m := newPlaceCluster(5, 2)
	populate(t, eng, cl.Rank(0), "/a/job", 3)
	epoch0, writes0 := m.epoch, obj.Stats().Writes
	run(t, eng, func(p runtime.Task) {
		start := p.Now()
		if err := m.Place(p, "/a/job", 0); err != nil {
			t.Fatalf("place on the owner: %v", err)
		}
		if took := runtime.Duration(p.Now() - start); took != commitLatency {
			t.Errorf("place on the owner took %v, want one commit latency %v", took, commitLatency)
		}
	})
	if got := m.epoch; got != epoch0+1 {
		t.Errorf("epoch = %d, want %d", got, epoch0+1)
	}
	if got := cl.Table().Paths(); !slices.Equal(got, []string{"/a/job"}) || cl.Table().RankFor("/a/job") != 0 {
		t.Errorf("table = %v routing /a/job to rank %d, want the pin on rank 0", got, cl.Table().RankFor("/a/job"))
	}
	for r := 0; r < cl.Ranks(); r++ {
		if got := cl.Rank(r).Metrics().Exports; got != 0 {
			t.Errorf("rank %d exports = %d, want 0", r, got)
		}
	}
	if got := obj.Stats().Writes; got != writes0 {
		t.Errorf("RADOS writes %d -> %d, want none", writes0, got)
	}
	if cl.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0", cl.Migrations())
	}
}

// TestAbortedImportCopyRedirects: a migration whose export-commit record
// is torn (the chaos driver's torn-commit fault) aborts and leaves the
// importer an unreachable copy of the subtree. A request that names only
// an inode of that copy, sent to the importer, is redirected to the
// owner instead of being served from the copy: the rank places it by the
// inode's path.
func TestAbortedImportCopyRedirects(t *testing.T) {
	eng, obj, cl, m := newPlaceCluster(5, 2)
	populate(t, eng, cl.Rank(0), "/a/job", 3)
	inj := rados.NewFaultInjector(1)
	inj.TornWriteProb, inj.MaxFaults = 1, 1
	inj.Match = func(oid rados.ObjectID) bool { return oid.Pool == mds.MigrationPool }
	obj.SetFaults(inj)
	run(t, eng, func(p runtime.Task) {
		if err := m.Migrate(p, "/a/job", 1); !errors.Is(err, rados.ErrIO) {
			t.Fatalf("migrate under a torn commit record = %v, want an I/O error", err)
		}
	})
	copied, err := cl.Rank(1).Store().Resolve("/a/job/f00")
	if err != nil {
		t.Fatalf("the aborted import left no copy on rank 1: %v", err)
	}
	if got := cl.Table().RankFor("/a/job"); got != 0 {
		t.Fatalf("table routes /a/job to rank %d after the abort, want 0", got)
	}
	run(t, eng, func(p runtime.Task) {
		for _, op := range []mds.Op{mds.OpGetAttr, mds.OpSetAttr} {
			r := cl.Rank(1).Submit(p, &mds.Request{Op: op, Client: "c0", Ino: copied.Ino, UID: 7})
			if wr, ok := transport.IsRedirect(r.Err); !ok || wr.Rank != 0 || wr.Frozen {
				t.Errorf("%v of inode %d on the importer: err = %v, want a redirect to rank 0", op, copied.Ino, r.Err)
			}
		}
		r := cl.Call(p, &mds.Request{Op: mds.OpSetAttr, Client: "c0", Ino: copied.Ino, UID: 7}).(*mds.Reply)
		if r.Err != nil {
			t.Errorf("setattr routed to the owner: %v", r.Err)
		}
	})
	if in, err := cl.Rank(0).Store().Resolve("/a/job/f00"); err != nil || in.UID != 7 {
		t.Errorf("owner's /a/job/f00 = %+v, %v; want uid 7", in, err)
	}
	if in, _ := cl.Rank(1).Store().Get(copied.Ino); in.UID != 0 {
		t.Errorf("the importer's stale copy took the update: uid %d", in.UID)
	}
}

// TestPlaceKeepsSourceDurability: a Place onto another rank is the
// handoff Migrate runs, as durable as its source keeps the subtree. Off a
// rank whose journal holds nothing its last save missed it writes no
// object; off one that streamed a create since, it saves the frozen
// image and writes the export-commit record. Either way the subtree
// moves and the source prunes it down to the bound its parent lists.
func TestPlaceKeepsSourceDurability(t *testing.T) {
	for _, stream := range []bool{false, true} {
		eng, obj, cl, m := newPlaceCluster(5, 2)
		populate(t, eng, cl.Rank(0), "/a/job", 3)
		cl.Rank(0).SetStream(stream)
		var recErr error
		run(t, eng, func(p runtime.Task) {
			job, _ := cl.Rank(0).Store().Resolve("/a/job")
			if err := cl.Call(p, &mds.Request{Op: mds.OpCreate, Client: "c0", Route: "/a/job",
				Parent: job.Ino, Name: "streamed", Mode: 0644}).(*mds.Reply).Err; err != nil {
				t.Fatalf("stream %v: create: %v", stream, err)
			}
		})
		writes0 := obj.Stats().Writes
		run(t, eng, func(p runtime.Task) {
			if err := m.Place(p, "/a/job", 1); err != nil {
				t.Fatalf("stream %v: place: %v", stream, err)
			}
			_, recErr = obj.Stat(p, rados.ObjectID{Pool: mds.MigrationPool, Name: mds.ExportRecordName(1)})
		})
		if got := obj.Stats().Writes - writes0; (got != 0) != stream {
			t.Errorf("stream %v: place wrote %d objects", stream, got)
		}
		if (recErr == nil) != stream {
			t.Errorf("stream %v: export-commit record: %v", stream, recErr)
		}
		if _, err := cl.Rank(1).Store().Resolve("/a/job/f20"); err != nil || cl.Table().RankFor("/a/job") != 1 {
			t.Errorf("stream %v: rank 1 owns /a/job: %v, table rank %d", stream, err, cl.Table().RankFor("/a/job"))
		}
		if !heldAsBound(cl.Rank(0).Store(), "/a/job") {
			t.Errorf("stream %v: source holds more than the bound after the place", stream)
		}
	}
}

// TestHandoffMovesNestedPins: a subtree pinned under a moving subtree on
// the same rank moves with it, because the source exports and prunes all
// it holds under the path; a subtree under it placed on a third rank
// stays there. The table then names, for every path, a rank that holds
// it.
func TestHandoffMovesNestedPins(t *testing.T) {
	eng, _, cl, m := newPlaceCluster(5, 3)
	populate(t, eng, cl.Rank(0), "/a/pinned", 1)
	populate(t, eng, cl.Rank(0), "/a/away", 1)
	run(t, eng, func(p runtime.Task) {
		for _, pl := range []struct {
			path string
			rank int
		}{{"/a/pinned", 0}, {"/a/away", 2}, {"/a", 1}} {
			if err := m.Place(p, pl.path, pl.rank); err != nil {
				t.Fatalf("place %s on rank %d: %v", pl.path, pl.rank, err)
			}
		}
	})
	for path, want := range map[string]int{"/a": 1, "/a/pinned/f00": 1, "/a/away/f00": 2} {
		if got := cl.Table().RankFor(path); got != want {
			t.Errorf("RankFor(%s) = %d, want %d", path, got, want)
		}
		if _, err := cl.Rank(want).Store().Resolve(path); err != nil {
			t.Errorf("rank %d, which the table names for %s: %v", want, path, err)
		}
	}
}

// TestPlaceRacingPlaceIsBusy: of two placements of one subtree onto
// another rank started together, one commits and the other is refused
// with namespace.ErrBusy, as a second Migrate is.
func TestPlaceRacingPlaceIsBusy(t *testing.T) {
	eng, _, cl, m := newPlaceCluster(5, 2)
	populate(t, eng, cl.Rank(0), "/a/job", 20)
	var err1, err2 error
	eng.Spawn("place1", func(p runtime.Task) { err1 = m.Place(p, "/a/job", 1) })
	eng.Spawn("place2", func(p runtime.Task) { err2 = m.Place(p, "/a/job", 1) })
	eng.RunAll()
	if err1 != nil || !errors.Is(err2, namespace.ErrBusy) {
		t.Fatalf("placements returned %v and %v, want nil and busy", err1, err2)
	}
	if cl.Table().RankFor("/a/job") != 1 || cl.Rank(0).Frozen("/a/job") {
		t.Errorf("table rank %d, source frozen %v; want rank 1 and thawed",
			cl.Table().RankFor("/a/job"), cl.Rank(0).Frozen("/a/job"))
	}
}

// TestPlaceOnOwnerRacingMigrate: Migrate(/a/job, 1) and Place(/a/job, 0)
// start together, the placement delayed by 0 to 6 ms in 50 µs steps, so
// that some placements see rank 0 as the owner and sleep their commit
// latency while the migration freezes, flips and thaws. Each call that
// returns nil finds the table naming its rank at that moment; a Place
// that finds the subtree frozen or already moved is refused with ErrBusy
// and pins nothing.
func TestPlaceOnOwnerRacingMigrate(t *testing.T) {
	const steps, step = 120, 50 * time.Microsecond
	busy := 0
	for i := 0; i < steps; i++ {
		eng, _, cl, m := newPlaceCluster(5, 2)
		populate(t, eng, cl.Rank(0), "/a/job", 20)
		tb := cl.Table()
		eng.Spawn("migrate", func(p runtime.Task) {
			if err := m.Migrate(p, "/a/job", 1); err != nil {
				t.Errorf("start %d: migrate: %v", i, err)
			} else if got := tb.RankFor("/a/job"); got != 1 {
				t.Errorf("start %d: migrate returned with the table naming rank %d", i, got)
			}
		})
		eng.Spawn("place", func(p runtime.Task) {
			p.Sleep(time.Duration(i) * step)
			switch err := m.Place(p, "/a/job", 0); {
			case errors.Is(err, namespace.ErrBusy):
				busy++
			case err != nil:
				t.Errorf("start %d: place: %v", i, err)
			default:
				if got := tb.RankFor("/a/job"); got != 0 {
					t.Errorf("start %d: place onto 0 returned nil with the table naming rank %d", i, got)
				}
			}
		})
		eng.RunAll()
		if owner := tb.RankFor("/a/job"); cl.Rank(owner).Frozen("/a/job") {
			t.Errorf("start %d: owner %d left frozen", i, owner)
		}
		if in, err := cl.Rank(tb.RankFor("/a/job")).Store().Resolve("/a/job"); err != nil || in.NumChildren() != 20 {
			t.Errorf("start %d: the owner rank %d lacks the subtree: %v", i, tb.RankFor("/a/job"), err)
		}
	}
	if busy == 0 {
		t.Error("no placement overlapped the migration")
	}
}

// TestSourceSaveKeepsPlacedSubtree: after /a/job moves to rank 1, both
// ranks save their stores to the one metadata pool, the source last. The
// source holds /a/job only as the bound /a lists, so it must not write
// that empty directory over the object rank 1 saved: a rank recovered
// from the pool still finds every file under /a/job.
func TestSourceSaveKeepsPlacedSubtree(t *testing.T) {
	eng, _, cl, m := newPlaceCluster(5, 2)
	populate(t, eng, cl.Rank(0), "/a/job", 3)
	run(t, eng, func(p runtime.Task) {
		if err := m.Place(p, "/a/job", 1); err != nil {
			t.Fatalf("place: %v", err)
		}
		for _, r := range []int{1, 0} {
			if err := cl.Rank(r).SaveStore(p); err != nil {
				t.Fatalf("rank %d save: %v", r, err)
			}
		}
		if err := cl.Rank(1).Recover(p); err != nil {
			t.Fatalf("recover: %v", err)
		}
	})
	if in, err := cl.Rank(1).Store().Resolve("/a/job"); err != nil || in.NumChildren() != 3 {
		t.Errorf("recovered /a/job: %+v, %v; want its 3 files", in, err)
	}
}

// TestHandoffBackKeepsAncestorEntries: /a/job moves to rank 1 and back.
// Between the moves rank 0, which owns /a, creates a file there. The
// handoff back streams rank 1's copy of /a as part of the ancestor
// chain, which predates the file; rank 0 owns /a and must not install
// that copy over its own.
func TestHandoffBackKeepsAncestorEntries(t *testing.T) {
	eng, _, cl, m := newPlaceCluster(5, 2)
	populate(t, eng, cl.Rank(0), "/a/job", 3)
	run(t, eng, func(p runtime.Task) {
		if err := m.Place(p, "/a/job", 1); err != nil {
			t.Fatalf("place: %v", err)
		}
		a, err := cl.Rank(0).Store().Resolve("/a")
		if err == nil {
			_, err = cl.Rank(0).Store().Create(a.Ino, "late", namespace.CreateAttrs{Mode: 0644})
		}
		if err == nil {
			err = m.Place(p, "/a/job", 0)
		}
		if err != nil {
			t.Fatalf("late create and place back: %v", err)
		}
	})
	for _, path := range []string{"/a/late", "/a/job/f20"} {
		if _, err := cl.Rank(0).Store().Resolve(path); err != nil {
			t.Errorf("rank 0 after the handoff back: %v", err)
		}
	}
}
