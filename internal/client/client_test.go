package client

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

type cluster struct {
	eng runtime.Runtime
	obj *rados.Cluster
	srv *mds.Server
}

func newCluster() *cluster {
	eng := sim.NewEngine(23)
	cfg := model.Default()
	obj := rados.New(eng, cfg)
	srv := mds.New(eng, cfg, obj)
	return &cluster{eng: eng, obj: obj, srv: srv}
}

func (cl *cluster) client(name string) *Client {
	c := New(cl.eng, model.Default(), name, cl.srv, cl.obj)
	c.Mount(nil)
	return c
}

func (cl *cluster) run(t *testing.T, fn func(p runtime.Task)) {
	t.Helper()
	cl.eng.Spawn("test", fn)
	cl.eng.RunAll()
}

func TestRPCCreateUsesCap(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		dir, err := c.Mkdir(p, namespace.RootIno, "d", 0755)
		if err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			if _, err := c.Create(p, dir, fmt.Sprintf("f%d", i), 0644); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
		}
	})
	st := c.Stats()
	// First create may need a remote lookup (no cap yet); the rest are
	// local.
	if st.RemoteLookups > 1 {
		t.Fatalf("remote lookups = %d, want <= 1", st.RemoteLookups)
	}
	if st.LocalLookups < 9 {
		t.Fatalf("local lookups = %d, want >= 9", st.LocalLookups)
	}
	if st.Creates != 10 {
		t.Fatalf("creates = %d", st.Creates)
	}
}

func TestInterferenceForcesRemoteLookups(t *testing.T) {
	cl := newCluster()
	a := cl.client("a")
	b := cl.client("b")
	cl.run(t, func(p runtime.Task) {
		dir, _ := a.Mkdir(p, namespace.RootIno, "d", 0755)
		a.Create(p, dir, "f0", 0644)
		if !a.HoldsCap(dir) {
			t.Error("a does not hold cap after first create")
		}
		// b interferes.
		b.Create(p, dir, "intruder", 0644)
		// a's next create discovers the revocation on its reply; after
		// that every create needs a remote lookup.
		a.Create(p, dir, "f1", 0644)
		before := a.Stats().RemoteLookups
		for i := 2; i < 7; i++ {
			a.Create(p, dir, fmt.Sprintf("f%d", i), 0644)
		}
		after := a.Stats().RemoteLookups
		if after-before != 5 {
			t.Errorf("remote lookups after sharing = %d, want 5", after-before)
		}
		if a.HoldsCap(dir) {
			t.Error("a still believes it holds the cap")
		}
	})
}

func TestCreateExistingFails(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		dir, _ := c.Mkdir(p, namespace.RootIno, "d", 0755)
		c.Create(p, dir, "f", 0644)
		if _, err := c.Create(p, dir, "f", 0644); !errors.Is(err, namespace.ErrExist) {
			t.Errorf("duplicate create err = %v", err)
		}
		// Also through the remote-lookup path.
		c.shared[dir] = true
		if _, err := c.Create(p, dir, "f", 0644); !errors.Is(err, namespace.ErrExist) {
			t.Errorf("duplicate create (shared) err = %v", err)
		}
	})
}

func TestMkdirAllResolveReadDir(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		dir, err := c.MkdirAll(p, "/a/b/c", 0755)
		if err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		got, err := c.Resolve(p, "/a/b/c")
		if err != nil || got != dir {
			t.Errorf("resolve = %d, %v; want %d", got, err, dir)
		}
		c.Create(p, dir, "f", 0644)
		names, err := c.ReadDir(p, dir)
		if err != nil || len(names) != 1 || names[0] != "f" {
			t.Errorf("readdir = %v, %v", names, err)
		}
		// Idempotent mkdirall.
		again, err := c.MkdirAll(p, "/a/b/c", 0755)
		if err != nil || again != dir {
			t.Errorf("second mkdirall = %d, %v", again, err)
		}
	})
}

func TestUnlinkRenameSetAttrStat(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		dir, _ := c.Mkdir(p, namespace.RootIno, "d", 0755)
		ino, _ := c.Create(p, dir, "f", 0644)
		if err := c.SetAttr(p, ino, 0600, 1, 2, 99, 12345); err != nil {
			t.Errorf("setattr: %v", err)
		}
		st, err := c.Stat(p, ino)
		if err != nil || st.Mode != 0600 || st.Size != 99 {
			t.Errorf("stat = %+v, %v", st, err)
		}
		if err := c.Rename(p, dir, "f", namespace.RootIno, "g"); err != nil {
			t.Errorf("rename: %v", err)
		}
		if err := c.Unlink(p, namespace.RootIno, "g"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if _, err := c.Stat(p, ino); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("stat after unlink err = %v", err)
		}
	})
}

func decouplePolicy(cons policy.Consistency, dur policy.Durability, inodes int) *policy.Policy {
	return &policy.Policy{Consistency: cons, Durability: dur, AllocatedInodes: inodes}
}

func TestDecoupleLocalCreate(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		err := c.Decouple(p, "/job", decouplePolicy(policy.ConsInvisible, policy.DurNone, 1000))
		if err != nil {
			t.Errorf("decouple: %v", err)
			return
		}
		if !c.Decoupled() {
			t.Error("not decoupled")
		}
		root, _ := c.DecoupledRoot()
		start := p.Now()
		for i := 0; i < 500; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
				t.Errorf("local create %d: %v", i, err)
				return
			}
		}
		rate := 500 / (p.Now() - start).Seconds()
		// Paper: ~11K creates/s for Append Client Journal.
		if rate < 10000 || rate > 12000 {
			t.Errorf("local create rate = %.0f/s, want ~11000", rate)
		}
		if c.InodesLeft() != 500 {
			t.Errorf("inodes left = %d", c.InodesLeft())
		}
		j, _ := c.Journal()
		if j.Len() != 500 {
			t.Errorf("journal len = %d", j.Len())
		}
		// Local reads need no RPC.
		names, err := c.LocalReadDir(root)
		if err != nil || len(names) != 500 {
			t.Errorf("local readdir = %d names, %v", len(names), err)
		}
	})
}

func TestGrantExhaustion(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsInvisible, policy.DurNone, 3))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 3; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
				t.Errorf("create %d: %v", i, err)
			}
		}
		if _, err := c.LocalCreate(p, root, "overflow", 0644); !errors.Is(err, ErrNoInodes) {
			t.Errorf("overflow err = %v, want ErrNoInodes", err)
		}
	})
}

func TestNotDecoupledErrors(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if _, err := c.LocalCreate(p, namespace.RootIno, "f", 0644); !errors.Is(err, ErrNotDecoupled) {
			t.Errorf("local create err = %v", err)
		}
		if _, err := c.VolatileApply(p); !errors.Is(err, ErrNotDecoupled) {
			t.Errorf("volatile apply err = %v", err)
		}
		if err := c.LocalPersist(p); !errors.Is(err, ErrNotDecoupled) {
			t.Errorf("local persist err = %v", err)
		}
		if err := c.GlobalPersist(p); !errors.Is(err, ErrNotDecoupled) {
			t.Errorf("global persist err = %v", err)
		}
		if _, err := c.NonvolatileApply(p); !errors.Is(err, ErrNotDecoupled) {
			t.Errorf("nonvolatile apply err = %v", err)
		}
		if _, _, err := c.SyncNow(p); !errors.Is(err, ErrNotDecoupled) {
			t.Errorf("sync err = %v", err)
		}
	})
}

func TestVolatileApplyMergesIntoGlobal(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsWeak, policy.DurNone, 1000))
		root, _ := c.DecoupledRoot()
		sub, _ := c.LocalMkdir(p, root, "sub", 0755)
		for i := 0; i < 20; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		c.LocalCreate(p, sub, "deep", 0644)
		n, err := c.VolatileApply(p)
		if err != nil || n != 22 {
			t.Errorf("volatile apply = %d, %v", n, err)
			return
		}
		// Everything is now visible in the global namespace.
		if _, err := cl.srv.Store().Resolve("/job/sub/deep"); err != nil {
			t.Errorf("merged file missing: %v", err)
		}
		if _, err := cl.srv.Store().Resolve("/job/f19"); err != nil {
			t.Errorf("merged file missing: %v", err)
		}
		j, _ := c.Journal()
		if j.Len() != 0 {
			t.Errorf("journal not cleared after merge: %d", j.Len())
		}
	})
}

func TestLocalPersistRecover(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsInvisible, policy.DurLocal, 100))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 10; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		if err := c.LocalPersist(p); err != nil {
			t.Errorf("persist: %v", err)
			return
		}
		if _, ok := c.LocalJournalFile(); !ok {
			t.Error("no local journal file")
		}
		// Simulate a crash-and-recover: wipe the in-memory journal.
		j, _ := c.Journal()
		j.Reset()
		n, err := c.RecoverLocal(p)
		if err != nil || n != 10 {
			t.Errorf("recover = %d, %v", n, err)
			return
		}
		// The recovered journal can now be merged.
		if n, err := c.VolatileApply(p); err != nil || n != 10 {
			t.Errorf("post-recovery merge = %d, %v", n, err)
		}
	})
}

// TestLocalPersistFileSurvivesFailedPersist: with a real local directory
// the Local Persist file goes through the object store's durable-write
// protocol, so a persist that dies before its rename — a killed writer's
// tmp litter, a tmp file that cannot be created — leaves the previously
// committed image as what RecoverLocal reads, and the next persist
// commits over the litter. (The protocol's own failure paths are driven
// in rados.TestReplaceProtocolFailures.)
func TestLocalPersistFileSurvivesFailedPersist(t *testing.T) {
	dir := t.TempDir()
	cl := newCluster()
	c := cl.client("c0")
	c.SetLocalDir(dir)
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsInvisible, policy.DurLocal, 100))
		root, _ := c.DecoupledRoot()
		persist := func(upTo int) error {
			for i := c.dec.jrnl.Len(); i < upTo; i++ {
				c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
			}
			return c.LocalPersist(p)
		}
		recovered := func(when string, want int) {
			t.Helper()
			delete(c.localFiles, "journal") // only the file on disk is left
			if n, err := c.RecoverLocal(p); err != nil || n != want {
				t.Errorf("%s: recovered %d events, %v; want %d", when, n, err, want)
			}
		}
		if err := persist(3); err != nil {
			t.Fatalf("first persist: %v", err)
		}
		recovered("committed image", 3)

		// A writer killed between fsync(tmp) and rename leaves this.
		tmp := filepath.Join(dir, "journal.tmp")
		if err := os.WriteFile(tmp, []byte("half of the next image"), 0o644); err != nil {
			t.Fatal(err)
		}
		recovered("beside a dead writer's tmp file", 3)
		if err := persist(5); err != nil {
			t.Fatalf("persist over tmp litter: %v", err)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("tmp file left after a committed persist: %v", err)
		}
		recovered("second image", 5)

		// A persist that cannot even fill its tmp file reports the error
		// and commits nothing.
		if err := os.MkdirAll(filepath.Join(tmp, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := persist(8); err == nil {
			t.Error("persist with an unwritable tmp file succeeded")
		}
		recovered("after a failed persist", 5)
	})
}

func TestGlobalPersistFetch(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	other := cl.client("c1")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsInvisible, policy.DurGlobal, 100))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 5; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		if err := c.GlobalPersist(p); err != nil {
			t.Errorf("global persist: %v", err)
			return
		}
		// Any client (e.g. a recovery tool) can fetch it back.
		events, err := other.FetchGlobalJournal(p, "c0")
		if err != nil || len(events) != 5 {
			t.Errorf("fetch = %d events, %v", len(events), err)
		}
	})
}

func TestNonvolatileApplyThenRecover(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		// Flush the namespace so the object store has the dir objects.
		if err := cl.srv.SaveStore(p); err != nil {
			t.Errorf("save store: %v", err)
			return
		}
		c.Decouple(p, "/job", decouplePolicy(policy.ConsWeak, policy.DurGlobal, 100))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 10; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		n, err := c.NonvolatileApply(p)
		if err != nil || n != 10 {
			t.Errorf("nonvolatile apply = %d, %v", n, err)
			return
		}
		// Restart the MDS: it notices the updates in the object store.
		if err := cl.srv.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			if _, err := cl.srv.Store().Resolve(fmt.Sprintf("/job/f%d", i)); err != nil {
				t.Errorf("file f%d missing after recovery: %v", i, err)
			}
		}
	})
}

func TestNonvolatileApplyCost(t *testing.T) {
	// Nonvolatile Apply must be roughly 78x slower than appending to the
	// client journal (paper §V-A): ~7 ms per update.
	cl := newCluster()
	c := cl.client("c0")
	var perUpdate time.Duration
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		cl.srv.SaveStore(p)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsWeak, policy.DurGlobal, 200))
		root, _ := c.DecoupledRoot()
		const n = 100
		for i := 0; i < n; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		start := p.Now()
		if _, err := c.NonvolatileApply(p); err != nil {
			t.Errorf("apply: %v", err)
			return
		}
		perUpdate = time.Duration((p.Now() - start)) / n
	})
	if perUpdate < 5*time.Millisecond || perUpdate > 9*time.Millisecond {
		t.Fatalf("nonvolatile apply = %v/update, want ~7ms", perUpdate)
	}
}

func TestRunCompositionBatchFS(t *testing.T) {
	// BatchFS semantics: append + local persist + volatile apply.
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/batch", 0755)
		pol := decouplePolicy(policy.ConsWeak, policy.DurLocal, 100)
		c.Decouple(p, "/batch", pol)
		root, _ := c.DecoupledRoot()
		for i := 0; i < 10; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		comp, _ := pol.Composition()
		// Strip the workload-time step (append) — RunComposition treats
		// it as a no-op anyway.
		if err := c.RunComposition(p, comp); err != nil {
			t.Errorf("composition: %v", err)
			return
		}
		if _, ok := c.LocalJournalFile(); !ok {
			t.Error("local persist did not run")
		}
		if _, err := cl.srv.Store().Resolve("/batch/f9"); err != nil {
			t.Errorf("volatile apply did not run: %v", err)
		}
	})
}

func TestRunCompositionParallelStep(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/j", 0755)
		c.Decouple(p, "/j", decouplePolicy(policy.ConsInvisible, policy.DurNone, 100))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 10; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		comp, err := policy.ParseComposition("local_persist||global_persist")
		if err != nil {
			t.Errorf("parse: %v", err)
			return
		}
		if err := c.RunComposition(p, comp); err != nil {
			t.Errorf("composition: %v", err)
			return
		}
		if _, ok := c.LocalJournalFile(); !ok {
			t.Error("local persist missing")
		}
		if _, err := c.FetchGlobalJournal(p, "c0"); err != nil {
			t.Errorf("global persist missing: %v", err)
		}
	})
}

func TestRunCompositionStreamToggle(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		comp, _ := policy.ParseComposition("rpcs+stream")
		if err := c.RunComposition(p, comp); err != nil {
			t.Errorf("composition: %v", err)
		}
	})
	if !cl.srv.StreamEnabled() {
		t.Fatal("stream not enabled by composition")
	}
}

func TestNamespaceSync(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/exp", 0755)
		c.Decouple(p, "/exp", decouplePolicy(policy.ConsInvisible, policy.DurLocal, 10000))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 1000; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		pause, n, err := c.SyncNow(p)
		if err != nil || n != 1000 {
			t.Errorf("sync = %v, %d, %v", pause, n, err)
			return
		}
		if pause <= 0 {
			t.Error("sync had no pause")
		}
		// Nothing new: sync is a no-op.
		if _, n, _ := c.SyncNow(p); n != 0 {
			t.Errorf("empty sync shipped %d events", n)
		}
		for i := 1000; i < 1500; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		if _, n, _ := c.SyncNow(p); n != 500 {
			t.Errorf("second sync shipped %d events, want 500", n)
		}
		if err := c.WaitSyncVisible(p); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		// Partial results are visible to end-users via the global
		// namespace.
		names, err := cl.srv.Store().ReadDir(root)
		if err != nil || len(names) != 1500 {
			t.Errorf("global dir has %d names, %v; want 1500", len(names), err)
		}
		pauses, paused := c.SyncStats()
		if pauses != 2 || paused <= 0 {
			t.Errorf("sync stats = %d, %v", pauses, paused)
		}
	})
}

func TestSyncDrainOrdering(t *testing.T) {
	// Two quick syncs: the second drain must wait for the first, and
	// both land.
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/exp", 0755)
		c.Decouple(p, "/exp", decouplePolicy(policy.ConsInvisible, policy.DurNone, 10000))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 100; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("a%d", i), 0644)
		}
		c.SyncNow(p)
		for i := 0; i < 100; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("b%d", i), 0644)
		}
		c.SyncNow(p)
		if err := c.WaitSyncVisible(p); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		names, _ := cl.srv.Store().ReadDir(root)
		if len(names) != 200 {
			t.Errorf("global names = %d, want 200", len(names))
		}
	})
}

func TestBlockedSubtreeRejection(t *testing.T) {
	cl := newCluster()
	owner := cl.client("owner")
	intruder := cl.client("intruder")
	cl.run(t, func(p runtime.Task) {
		owner.MkdirAll(p, "/mine", 0755)
		pol := decouplePolicy(policy.ConsInvisible, policy.DurLocal, 100)
		pol.Interfere = policy.InterfereBlock
		owner.Decouple(p, "/mine", pol)
		dir, _ := intruder.Resolve(p, "/mine")
		if _, err := intruder.Create(p, dir, "x", 0644); !errors.Is(err, namespace.ErrBusy) {
			t.Errorf("intruder create err = %v, want ErrBusy", err)
		}
	})
	if intruder.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", intruder.Stats().Rejected)
	}
}

func TestUnmountDropsState(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		dir, _ := c.Mkdir(p, namespace.RootIno, "d", 0755)
		c.Create(p, dir, "f", 0644)
		if !c.HoldsCap(dir) {
			t.Error("no cap before unmount")
		}
		c.Unmount(p)
		if c.HoldsCap(dir) {
			t.Error("cap survived unmount")
		}
	})
	if cl.srv.Sessions() != 0 {
		t.Fatalf("sessions = %d", cl.srv.Sessions())
	}
}
