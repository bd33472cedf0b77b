package client

import (
	"errors"
	"fmt"
	"testing"

	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
)

func TestNameAndLocalDisk(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	if c.Name() != "c0" {
		t.Fatalf("name = %q", c.Name())
	}
	if c.LocalDisk() == nil {
		t.Fatal("no local disk pipe")
	}
}

func TestLookupRPC(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		dir, _ := c.Mkdir(p, namespace.RootIno, "d", 0755)
		ino, _ := c.Create(p, dir, "f", 0644)
		got, err := c.Lookup(p, dir, "f")
		if err != nil || got != ino {
			t.Errorf("lookup = %d, %v", got, err)
		}
		if _, err := c.Lookup(p, dir, "ghost"); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("missing lookup err = %v", err)
		}
	})
	if c.Stats().RemoteLookups < 2 {
		t.Fatalf("remote lookups = %d", c.Stats().RemoteLookups)
	}
}

func TestLocalUnlinkAndReadDir(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/j", 0755)
		c.Decouple(p, "/j", decouplePolicy(policy.ConsWeak, policy.DurNone, 100))
		root, _ := c.DecoupledRoot()
		c.LocalCreate(p, root, "a", 0644)
		c.LocalCreate(p, root, "b", 0644)
		if err := c.LocalUnlink(p, root, "a"); err != nil {
			t.Errorf("local unlink: %v", err)
		}
		if err := c.LocalUnlink(p, root, "ghost"); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("missing unlink err = %v", err)
		}
		names, err := c.LocalReadDir(root)
		if err != nil || len(names) != 1 || names[0] != "b" {
			t.Errorf("local readdir = %v, %v", names, err)
		}
		// The journal records create a, create b, unlink a; after merge
		// only b exists.
		if _, err := c.VolatileApply(p); err != nil {
			t.Errorf("merge: %v", err)
		}
		if _, err := cl.srv.Store().Resolve("/j/a"); err == nil {
			t.Error("unlinked file survived merge")
		}
		if _, err := cl.srv.Store().Resolve("/j/b"); err != nil {
			t.Errorf("file b missing after merge: %v", err)
		}
	})
	if err := cl.client("c1").LocalUnlink(nil, 0, "x"); !errors.Is(err, ErrNotDecoupled) {
		t.Fatalf("undcoupled local unlink err = %v", err)
	}
}

func TestLocalMkdirDeepNesting(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/j", 0755)
		c.Decouple(p, "/j", decouplePolicy(policy.ConsWeak, policy.DurNone, 1000))
		root, _ := c.DecoupledRoot()
		cur := root
		// A deep chain of decoupled directories.
		for i := 0; i < 10; i++ {
			next, err := c.LocalMkdir(p, cur, fmt.Sprintf("lvl%d", i), 0755)
			if err != nil {
				t.Errorf("mkdir %d: %v", i, err)
				return
			}
			cur = next
		}
		c.LocalCreate(p, cur, "leaf", 0644)
		if _, err := c.VolatileApply(p); err != nil {
			t.Errorf("merge: %v", err)
			return
		}
		path := "/j"
		for i := 0; i < 10; i++ {
			path += fmt.Sprintf("/lvl%d", i)
		}
		if _, err := cl.srv.Store().Resolve(path + "/leaf"); err != nil {
			t.Errorf("deep leaf missing: %v", err)
		}
	})
}

func TestJournalNominalBytes(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	if c.JournalNominalBytes() != 0 {
		t.Fatal("nominal bytes before decoupling != 0")
	}
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/j", 0755)
		c.Decouple(p, "/j", decouplePolicy(policy.ConsInvisible, policy.DurNone, 100))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 4; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
	})
	if got := c.JournalNominalBytes(); got != 4*2500 {
		t.Fatalf("nominal bytes = %d, want 10000", got)
	}
}

func TestWaitSyncDrainNoSync(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if err := c.WaitSyncDrain(p); err != nil {
			t.Errorf("drain with no sync: %v", err)
		}
		if err := c.WaitSyncVisible(p); err != nil {
			t.Errorf("visible with no sync: %v", err)
		}
	})
	if n, d := c.SyncStats(); n != 0 || d != 0 {
		t.Fatalf("sync stats = %d, %v", n, d)
	}
}

func TestWaitSyncDrainOnly(t *testing.T) {
	// WaitSyncDrain returns once bytes are shipped even though the MDS
	// apply (visibility) is still pending.
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/j", 0755)
		c.Decouple(p, "/j", decouplePolicy(policy.ConsInvisible, policy.DurNone, 60000))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 50000; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		c.SyncNow(p)
		if err := c.WaitSyncDrain(p); err != nil {
			t.Errorf("drain: %v", err)
			return
		}
		drainT := p.Now()
		if err := c.WaitSyncVisible(p); err != nil {
			t.Errorf("visible: %v", err)
			return
		}
		if p.Now() <= drainT {
			t.Error("visibility did not lag the drain")
		}
	})
}

func TestNonvolatileApplyDeepChain(t *testing.T) {
	// loadChain must pull ancestors when the journal touches a directory
	// whose parents are not yet in the shadow store.
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		deep, err := c.MkdirAll(p, "/a/b/c", 0755)
		if err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
		if err := cl.srv.SaveStore(p); err != nil {
			t.Fatalf("save: %v", err)
		}
		pol := decouplePolicy(policy.ConsWeak, policy.DurGlobal, 100)
		if err := c.Decouple(p, "/a/b/c", pol); err != nil {
			t.Fatalf("decouple: %v", err)
		}
		if _, err := c.LocalCreate(p, deep, "leaf", 0644); err != nil {
			t.Fatalf("local create: %v", err)
		}
		if _, err := c.NonvolatileApply(p); err != nil {
			t.Fatalf("nonvolatile apply: %v", err)
		}
		if err := cl.srv.Recover(p); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if _, err := cl.srv.Store().Resolve("/a/b/c/leaf"); err != nil {
			t.Errorf("deep leaf missing after recovery: %v", err)
		}
	})
}

func TestFetchGlobalJournalMissing(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if _, err := c.FetchGlobalJournal(p, "nobody"); !errors.Is(err, rados.ErrNotFound) {
			t.Errorf("missing journal err = %v", err)
		}
	})
}

func TestRunCompositionUnknownMechanism(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		comp := policy.Composition{{Parallel: []policy.Mechanism{policy.Mechanism(99)}}}
		if err := c.RunComposition(p, comp); err == nil {
			t.Error("unknown mechanism accepted")
		}
	})
}
