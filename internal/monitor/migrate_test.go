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

// heldAsBound reports whether st holds path only as the bound its parent
// lists after a handoff: an empty directory (namespace.Store.PruneExport).
func heldAsBound(st *namespace.Store, path string) bool {
	in, err := st.Resolve(path)
	return err == nil && in.IsDir() && in.NumChildren() == 0
}

// TestMigrateMovesOwnership is the tentpole's core contract: after an
// online migration the destination serves the subtree, the source has
// pruned it down to the bound its parent lists, and the ownership entity records the move under a new
// epoch. The subtree is wider than one migration chunk, with nested and
// sibling directories, and its deepest file lands too.
func TestMigrateMovesOwnership(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/keep", 2)
	for i := 0; i < 20; i++ {
		populate(t, eng, cl.Rank(0), fmt.Sprintf("/a/job/d%02d/leaf", i), 3)
	}
	populate(t, eng, cl.Rank(0), "/a/job", 7)
	epoch0 := m.epoch
	run(t, eng, func(p runtime.Task) {
		if err := m.Migrate(p, "/a/job", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
	})
	if got := cl.Table().RankFor("/a/job/f00"); got != 1 {
		t.Errorf("RankFor after migrate = %d, want 1", got)
	}
	if m.epoch != epoch0+1 {
		t.Errorf("epoch = %d, want %d", m.epoch, epoch0+1)
	}
	if _, err := cl.Rank(1).Store().Resolve("/a/job/f00"); err != nil {
		t.Errorf("dst resolve: %v", err)
	}
	if in, err := cl.Rank(1).Store().Resolve("/a/job/d19/leaf/f20"); err != nil || in.IsDir() {
		t.Errorf("dst lacks the deepest file: %v", err)
	}
	if !heldAsBound(cl.Rank(0).Store(), "/a/job") {
		t.Error("src holds more of /a/job than the bound /a lists")
	}
	if _, err := cl.Rank(0).Store().Resolve("/a/job/f00"); !errors.Is(err, namespace.ErrNotExist) {
		t.Errorf("src resolve after prune = %v, want ErrNotExist", err)
	}
	// The ancestor chain stays on the source (only the subtree moved).
	if _, err := cl.Rank(0).Store().Resolve("/a"); err != nil {
		t.Errorf("src parent resolve: %v", err)
	}
	st, ok := m.Subtree("/a/job")
	if !ok || st.State != SubtreeOwned || st.Moves != 1 || st.Epoch != m.epoch {
		t.Errorf("record = %+v, want owned, 1 move, epoch %d", st, m.epoch)
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

// TestMigrateToOwnerIsNoop: exporting a subtree to its current owner
// must not burn an epoch, freeze anything, or touch the stores.
func TestMigrateToOwnerIsNoop(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/job", 2)
	epoch0 := m.epoch
	run(t, eng, func(p runtime.Task) {
		if err := m.Migrate(p, "/a/job", 0); err != nil {
			t.Fatalf("self-migrate: %v", err)
		}
	})
	if m.epoch != epoch0 {
		t.Errorf("epoch moved on a no-op: %d -> %d", epoch0, m.epoch)
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
// and exact inode grant move with it, and the monitor hands them back to
// the new owner when it restarts.
func TestMigratePreservesRegistration(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	populate(t, eng, cl.Rank(0), "/a/dec", 3)
	var e *Subtree
	run(t, eng, func(p runtime.Task) {
		var err error
		e, err = m.RegisterPolicy(p, "/a/dec",
			parse(t, "consistency: weak\ndurability: none\nallocated_inodes: 500\n"), "client.7")
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
	if owner, ok := cl.Rank(0).Owner(in.Ino); ok {
		t.Errorf("src still names %q the owner of the bound it keeps", owner)
	}
	if got, _ := m.Lookup("/a/dec"); got != e || cl.Table().RankFor("/a/dec") != 1 || got.Policy.GrantLo != e.Policy.GrantLo {
		t.Errorf("record = %+v at rank %d, want the registered record at rank 1 with grant %d",
			got, cl.Table().RankFor("/a/dec"), e.Policy.GrantLo)
	}
	// Crash + restart the new owner; the restart restores the registration.
	run(t, eng, func(p runtime.Task) {
		cl.Rank(1).Crash(p)
		if err := m.Restart(p, 1); err != nil {
			t.Fatalf("restart: %v", err)
		}
	})
	in, err = cl.Rank(1).Store().Resolve("/a/dec")
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := cl.Rank(1).Owner(in.Ino); !ok || owner != "client.7" {
		t.Errorf("owner after the restart = %q, %v", owner, ok)
	}
	if in.Policy != e.Policy || cl.Rank(1).Store().ReservedRanges() != 1 {
		t.Errorf("after the restart rank 1 holds policy %p and %d grants, want the record's %p and its grant",
			in.Policy, cl.Rank(1).Store().ReservedRanges(), e.Policy)
	}
}

// TestGrantsNeverRepeat: the monitor issues every inode grant from the
// next slots of the registering rank's band, and nothing that happens to
// a subtree afterwards — a recouple, a re-registration, a rank crash and
// restart, a migration away and back — hands a range out twice, nor do
// two registrations in flight on one rank at once. A grant larger than a
// slot spends several, and a band with no slot left refuses the
// registration without spending one.
func TestGrantsNeverRepeat(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	for _, dir := range []string{"/a", "/b", "/c", "/d"} {
		populate(t, eng, cl.Rank(0), dir, 2)
	}
	type grant struct {
		rank  int
		lo    namespace.Ino
		n     uint64
		label string
	}
	var grants []grant
	const weak = "consistency: weak\ndurability: none\n"
	register := func(p runtime.Task, label, path, text string) {
		t.Helper()
		e, err := m.RegisterPolicy(p, path, parse(t, text), "c0")
		if err != nil {
			t.Errorf("%s: %v", label, err)
			return
		}
		grants = append(grants, grant{cl.Table().RankFor(path), namespace.Ino(e.Policy.GrantLo), e.Policy.GrantN, label})
	}
	run(t, eng, func(p runtime.Task) {
		register(p, "register /a", "/a", weak)
		if err := m.Unregister(p, "/a"); err != nil {
			t.Fatalf("recouple /a: %v", err)
		}
		register(p, "re-register /a", "/a", weak+"allocated_inodes: 40000000\n")
		if err := cl.Rank(0).SaveStore(p); err != nil {
			t.Fatalf("save rank 0: %v", err)
		}
		cl.Rank(0).Crash(p)
		if err := m.Restart(p, 0); err != nil {
			t.Fatalf("restart rank 0: %v", err)
		}
		register(p, "register /a after the restart", "/a", weak)
		for _, dst := range []int{1, 0} {
			if err := m.Migrate(p, "/a", dst); err != nil {
				t.Fatalf("migrate /a to rank %d: %v", dst, err)
			}
		}
		register(p, "register /a after the round trip", "/a", weak)
		if err := m.Place(p, "/b", 1); err != nil {
			t.Fatalf("place /b on rank 1: %v", err)
		}
		register(p, "register /b on rank 1", "/b", weak)
	})
	if got, want := grants[0].lo, namespace.Ino(1<<40); got != want {
		t.Errorf("first grant on rank 0 = %d, want %d", got, want)
	}
	if g := grants[len(grants)-1]; g.rank != 1 || g.lo != 1<<40+1<<34 {
		t.Errorf("first grant on rank 1 = %d on rank %d, want %d on rank 1", g.lo, g.rank, 1<<40+1<<34)
	}
	if got, want := grants[2].lo, grants[1].lo+3<<24; got != want {
		t.Errorf("grant after a 40 M-inode grant = %d, want %d: three slots spent", got, want)
	}

	for _, path := range []string{"/c", "/d"} {
		path := path
		eng.Spawn("register "+path, func(p runtime.Task) {
			register(p, "concurrent register "+path, path, weak)
		})
	}
	eng.RunAll()

	// A registration the rank refuses spends nothing. Fill rank 1's band
	// to its last slot; the next request is refused before the rank is
	// asked, and spends nothing either.
	run(t, eng, func(p runtime.Task) {
		slot := m.nextSlot[0]
		if _, err := m.RegisterPolicy(p, "/missing", parse(t, weak), "c0"); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("register of a missing path: err = %v, want ErrNotExist", err)
		}
		if m.nextSlot[0] != slot {
			t.Errorf("refused attach spent slots %d-%d", slot, m.nextSlot[0]-1)
		}
		left := bandSlots - m.nextSlot[1]
		register(p, "fill rank 1", "/b", fmt.Sprintf("%sallocated_inodes: %d\n", weak, left<<24))
		epoch := m.epoch
		if _, err := m.RegisterPolicy(p, "/b", parse(t, weak), "c0"); !errors.Is(err, namespace.ErrNoSpace) {
			t.Errorf("register on a full band: err = %v, want ErrNoSpace", err)
		}
		if m.nextSlot[1] != bandSlots || m.epoch != epoch {
			t.Errorf("refused register spent slot %d of %d, epoch %d -> %d", m.nextSlot[1], bandSlots, epoch, m.epoch)
		}
	})

	if len(grants) != 8 {
		t.Fatalf("%d grants issued, want 8", len(grants))
	}
	for i, a := range grants {
		if a.lo < grantAt(a.rank, 0) || a.lo+namespace.Ino(a.n) > grantAt(a.rank, bandSlots) {
			t.Errorf("%s: [%d,+%d) outside rank %d's band", a.label, a.lo, a.n, a.rank)
		}
		for _, b := range grants[i+1:] {
			if a.lo < b.lo+namespace.Ino(b.n) && b.lo < a.lo+namespace.Ino(a.n) {
				t.Errorf("%s [%d,+%d) overlaps %s [%d,+%d)", a.label, a.lo, a.n, b.label, b.lo, b.n)
			}
		}
	}
}
