package monitor

import (
	"errors"
	"fmt"
	"testing"

	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/runtime"
)

// populate creates a directory tree with some files on rank 0's store.
func populate(t *testing.T, eng runtime.Runtime, srv *mds.Server, dir string, files int) {
	t.Helper()
	run(t, eng, func(p runtime.Task) {
		in, err := srv.Store().MkdirAll(dir, namespace.CreateAttrs{Mode: 0755})
		if err != nil {
			t.Fatalf("mkdirall %s: %v", dir, err)
		}
		for i := 0; i < files; i++ {
			name := []byte{'f', byte('0' + i%10), byte('0' + i/10)}
			if _, err := srv.Store().Create(in.Ino, string(name), namespace.CreateAttrs{Mode: 0644}); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
	})
}

// TestMigrateMovesOwnership is the tentpole's core contract: after an
// online migration the destination serves the subtree, the source has
// pruned it, and the ownership entity records the move under a new
// epoch.
func TestMigrateMovesOwnership(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/job", 7)
	epoch0 := m.Epoch()
	run(t, eng, func(p runtime.Task) {
		if err := m.Migrate(p, "/a/job", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
	})
	if got := cl.Table().RankFor("/a/job/f00"); got != 1 {
		t.Errorf("RankFor after migrate = %d, want 1", got)
	}
	if m.Epoch() != epoch0+1 {
		t.Errorf("epoch = %d, want %d", m.Epoch(), epoch0+1)
	}
	if _, err := cl.Rank(1).Store().Resolve("/a/job/f00"); err != nil {
		t.Errorf("dst resolve: %v", err)
	}
	if _, err := cl.Rank(0).Store().Resolve("/a/job"); !errors.Is(err, namespace.ErrNotExist) {
		t.Errorf("src resolve after prune = %v, want ErrNotExist", err)
	}
	// The ancestor chain stays on the source (only the subtree moved).
	if _, err := cl.Rank(0).Store().Resolve("/a"); err != nil {
		t.Errorf("src parent resolve: %v", err)
	}
	st := cl.SubtreeFor("/a/job")
	if st.Rank != 1 || st.State != mds.SubtreeOwned || st.Moves != 1 {
		t.Errorf("entity = %+v, want rank 1, owned, 1 move", st)
	}
	if cl.Migrations() != 1 {
		t.Errorf("migrations = %d, want 1", cl.Migrations())
	}
	if got := cl.Rank(0).Metrics().Exports; got != 1 {
		t.Errorf("src exports = %d, want 1", got)
	}
	if got := cl.Rank(1).Metrics().Imports; got != 1 {
		t.Errorf("dst imports = %d, want 1", got)
	}
	// Neither side is left frozen.
	if cl.Rank(0).Frozen("/a/job") || cl.Rank(1).Frozen("/a/job") {
		t.Errorf("subtree still frozen after commit")
	}
}

// TestMigrateAndPlaceLandTheSameImage: an online migration and a set-up
// placement carry a subtree through the same directory objects in the
// same order (namespace.Store.SubtreeDirs), so the image each lands on
// the destination rank is the same — over a tree wider than one migration
// chunk, with nested and sibling directories.
func TestMigrateAndPlaceLandTheSameImage(t *testing.T) {
	landed := func(move func(p runtime.Task, cl *mds.Cluster, m *Monitor) error) *namespace.Store {
		eng, cl, m := newTestCluster(2)
		populate(t, eng, cl.Rank(0), "/a/keep", 2)
		for i := 0; i < 20; i++ {
			populate(t, eng, cl.Rank(0), fmt.Sprintf("/a/job/d%02d/leaf", i), 3)
		}
		populate(t, eng, cl.Rank(0), "/a/job", 5)
		run(t, eng, func(p runtime.Task) {
			if err := move(p, cl, m); err != nil {
				t.Fatalf("move: %v", err)
			}
		})
		return cl.Rank(1).Store()
	}
	migrated := landed(func(p runtime.Task, cl *mds.Cluster, m *Monitor) error { return m.Migrate(p, "/a/job", 1) })
	placed := landed(func(p runtime.Task, cl *mds.Cluster, m *Monitor) error { return cl.Place(p, "/a/job", 1) })
	if in, err := migrated.Resolve("/a/job/d19/leaf/f20"); err != nil || in.IsDir() {
		t.Fatalf("migrated image lacks the deepest file: %v", err)
	}
	if !namespace.Equal(migrated, placed) {
		t.Error("Monitor.Migrate and Cluster.Place landed different images of the same subtree")
	}
}

// TestMigrateToOwnerIsNoop: exporting a subtree to its current owner
// must not burn an epoch, freeze anything, or touch the stores.
func TestMigrateToOwnerIsNoop(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/job", 2)
	epoch0 := m.Epoch()
	run(t, eng, func(p runtime.Task) {
		if err := m.Migrate(p, "/a/job", 0); err != nil {
			t.Fatalf("self-migrate: %v", err)
		}
	})
	if m.Epoch() != epoch0 {
		t.Errorf("epoch moved on a no-op: %d -> %d", epoch0, m.Epoch())
	}
	if cl.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0", cl.Migrations())
	}
	if got := cl.Rank(0).Metrics().Exports; got != 0 {
		t.Errorf("exports = %d, want 0", got)
	}
}

// TestMigrateEmptySubtree: a subtree with no children still completes
// the full protocol (one empty final chunk retires the import job).
func TestMigrateEmptySubtree(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/empty", 0)
	run(t, eng, func(p runtime.Task) {
		if err := m.Migrate(p, "/a/empty", 1); err != nil {
			t.Fatalf("migrate empty: %v", err)
		}
	})
	if got := cl.Table().RankFor("/a/empty"); got != 1 {
		t.Errorf("RankFor = %d, want 1", got)
	}
	if in, err := cl.Rank(1).Store().Resolve("/a/empty"); err != nil || !in.IsDir() {
		t.Errorf("dst resolve = %v, %v", in, err)
	}
}

// TestMigrateInvalidTargets: bad ranks and non-directories are rejected
// without leaving frozen state behind.
func TestMigrateInvalidTargets(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/job", 1)
	run(t, eng, func(p runtime.Task) {
		if err := m.Migrate(p, "/a/job", 5); err == nil {
			t.Errorf("out-of-range rank accepted")
		}
		if err := m.Migrate(p, "/a/job/f00", 1); err == nil {
			t.Errorf("file migration accepted")
		}
		if err := m.Migrate(p, "/", 1); err == nil {
			t.Errorf("root migration accepted")
		}
		if err := m.Migrate(p, "/a/nosuch", 1); err == nil {
			t.Errorf("missing subtree accepted")
		}
	})
	if cl.Rank(0).Frozen("/a/job") {
		t.Errorf("subtree left frozen after rejected migrations")
	}
	if cl.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0", cl.Migrations())
	}
}

// TestMigrateConcurrentSiblings: two sibling subtrees migrate in
// opposite directions at once; admission and windows keep both handoffs
// isolated and both commit.
func TestMigrateConcurrentSiblings(t *testing.T) {
	eng, cl, m := newTestCluster(3)
	populate(t, eng, cl.Rank(0), "/a/one", 20)
	populate(t, eng, cl.Rank(0), "/a/two", 20)
	var err1, err2 error
	eng.Spawn("mig1", func(p runtime.Task) { err1 = m.Migrate(p, "/a/one", 1) })
	eng.Spawn("mig2", func(p runtime.Task) { err2 = m.Migrate(p, "/a/two", 2) })
	eng.RunAll()
	if err1 != nil || err2 != nil {
		t.Fatalf("concurrent migrations: %v, %v", err1, err2)
	}
	if r1, r2 := cl.Table().RankFor("/a/one"), cl.Table().RankFor("/a/two"); r1 != 1 || r2 != 2 {
		t.Errorf("ranks = %d,%d, want 1,2", r1, r2)
	}
	if _, err := cl.Rank(1).Store().Resolve("/a/one/f00"); err != nil {
		t.Errorf("rank1 resolve: %v", err)
	}
	if _, err := cl.Rank(2).Store().Resolve("/a/two/f00"); err != nil {
		t.Errorf("rank2 resolve: %v", err)
	}
	if cl.Migrations() != 2 {
		t.Errorf("migrations = %d, want 2", cl.Migrations())
	}
}

// TestMigrateSameSubtreeTwiceAtOnce: of two migrations of one subtree
// started together, one commits and the other is refused as busy — it
// must not freeze the subtree a second time, because its abort would thaw
// the source the first migration has already pruned.
func TestMigrateSameSubtreeTwiceAtOnce(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/job", 20)
	var err1, err2 error
	eng.Spawn("mig1", func(p runtime.Task) { err1 = m.Migrate(p, "/a/job", 1) })
	eng.Spawn("mig2", func(p runtime.Task) { err2 = m.Migrate(p, "/a/job", 1) })
	eng.RunAll()
	if err1 != nil || !errors.Is(err2, namespace.ErrBusy) {
		t.Fatalf("migrations returned %v and %v, want nil and busy", err1, err2)
	}
	if cl.Migrations() != 1 {
		t.Errorf("migrations = %d, want 1", cl.Migrations())
	}
	if _, err := cl.Rank(1).Store().Resolve("/a/job/f00"); err != nil {
		t.Errorf("dst resolve: %v", err)
	}
	if cl.Rank(0).Frozen("/a/job") || cl.Rank(1).Frozen("/a/job") {
		t.Error("subtree left frozen")
	}
}

// TestMigratePreservesRegistration: a decoupled subtree's policy, owner,
// and exact inode grant move with it, and Reattach re-installs them
// after the new owner restarts.
func TestMigratePreservesRegistration(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/dec", 3)
	var e *Entry
	run(t, eng, func(p runtime.Task) {
		var err error
		e, err = m.Register(p, "/a/dec",
			"consistency: weak\ndurability: none\nallocated_inodes: 500\n", "client.7")
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		if err := m.Migrate(p, "/a/dec", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
	})
	in, err := cl.Rank(1).Store().Resolve("/a/dec")
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := cl.Rank(1).Owner(in.Ino); !ok || owner != "client.7" {
		t.Errorf("dst owner = %q, %v, want client.7", owner, ok)
	}
	if in.Policy == nil {
		t.Errorf("dst lost the policy")
	}
	if got, _ := m.Lookup("/a/dec"); got.Rank != 1 || got.GrantLo != e.GrantLo {
		t.Errorf("entry = %+v, want rank 1 grant %d", got, e.GrantLo)
	}
	// Crash + restart the new owner; Reattach restores the registration.
	run(t, eng, func(p runtime.Task) {
		cl.Rank(1).Crash(p)
		if err := cl.Rank(1).Restart(p); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if err := m.Reattach(p, "/a/dec"); err != nil {
			t.Fatalf("reattach: %v", err)
		}
	})
	in, err = cl.Rank(1).Store().Resolve("/a/dec")
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := cl.Rank(1).Owner(in.Ino); !ok || owner != "client.7" {
		t.Errorf("owner after reattach = %q, %v", owner, ok)
	}
}

// TestSplitDirReplicates: a monitor-driven dirfrag split replicates the
// directory to every fragment rank and installs hash routing in one
// epoch.
func TestSplitDirReplicates(t *testing.T) {
	eng, cl, m := newTestCluster(3)
	populate(t, eng, cl.Rank(0), "/a/hot", 10)
	epoch0 := m.Epoch()
	run(t, eng, func(p runtime.Task) {
		if err := m.SplitDir(p, "/a/hot", []int{0, 1, 2}); err != nil {
			t.Fatalf("split: %v", err)
		}
		if err := m.SplitDir(p, "/a/hot", []int{0}); err == nil {
			t.Errorf("single-rank split accepted")
		}
	})
	if m.Epoch() != epoch0+1 {
		t.Errorf("epoch = %d, want %d", m.Epoch(), epoch0+1)
	}
	for r := 1; r < 3; r++ {
		if _, err := cl.Rank(r).Store().Resolve("/a/hot/f00"); err != nil {
			t.Errorf("rank %d missing replica: %v", r, err)
		}
	}
	splits := cl.Table().FragSplits()
	if len(splits["/a/hot"]) != 3 {
		t.Errorf("splits = %v, want /a/hot across 3 ranks", splits)
	}
	if cl.Migrations() != 1 {
		t.Errorf("migrations = %d, want 1 (split counts)", cl.Migrations())
	}
}
