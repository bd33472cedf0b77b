package client

import (
	"errors"
	"fmt"
	"testing"

	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
)

func TestSnapshot(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		decouple(p, c, "/job", decouplePolicy(policy.ConsInvisible, policy.DurNone, 100))
		root, _ := c.DecoupledRoot()
		sub, _ := c.LocalMkdir(p, root, "sub", 0755)
		c.LocalCreate(p, root, "a", 0644)
		c.LocalCreate(p, sub, "deep", 0644)

		snap, events, err := c.Snapshot()
		if err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		if len(events) != 3 {
			t.Errorf("events = %d", len(events))
		}
		if _, err := snap.Resolve("/sub/deep"); err != nil {
			t.Errorf("snapshot missing deep file: %v", err)
		}
		// The snapshot is isolated: more writes don't appear in it.
		c.LocalCreate(p, root, "later", 0644)
		if _, err := snap.Resolve("/later"); err == nil {
			t.Error("snapshot not isolated from later writes")
		}
		// Snapshot events carry global parent inos, so a reader can
		// replay them into a view of the global tree.
		if events[0].Parent != uint64(root) && events[0].Parent != uint64(namespace.RootIno) {
			t.Errorf("snapshot event parent = %d", events[0].Parent)
		}
	})
	if _, _, err := (&Client{}).Snapshot(); !errors.Is(err, ErrNotDecoupled) {
		t.Fatalf("snapshot undecoupled err = %v", err)
	}
}

func TestBuildViewOverlaysPersistedJournals(t *testing.T) {
	cl := newCluster()
	a := cl.client("a")
	b := cl.client("b")
	reader := cl.client("reader")
	cl.run(t, func(p runtime.Task) {
		// Global namespace has some POSIX content.
		home, _ := reader.MkdirAll(p, "/home", 0755)
		reader.Create(p, home, "shared.txt", 0644)

		// Two DeltaFS-style jobs write invisibly and persist globally.
		for i, c := range []*Client{a, b} {
			path := fmt.Sprintf("/job%d", i)
			c.MkdirAll(p, path, 0755)
			decouple(p, c, path, decouplePolicy(policy.ConsInvisible, policy.DurGlobal, 100))
			root, _ := c.DecoupledRoot()
			for k := 0; k < 5; k++ {
				c.LocalCreate(p, root, fmt.Sprintf("out%d", k), 0644)
			}
			if err := c.GlobalPersist(p); err != nil {
				t.Errorf("persist %s: %v", c.Name(), err)
				return
			}
		}

		// The global namespace knows nothing of the job outputs.
		if _, err := cl.srv.Store().Resolve("/job0/out0"); err == nil {
			t.Error("invisible updates leaked")
		}

		// A reader builds a consistent view at read time.
		view, err := reader.BuildView(p, []ViewSource{{Owner: "a"}, {Owner: "b"}})
		if err != nil {
			t.Errorf("build view: %v", err)
			return
		}
		for _, path := range []string{"/home/shared.txt", "/job0/out4", "/job1/out0"} {
			if _, err := view.Resolve(path); err != nil {
				t.Errorf("view missing %s: %v", path, err)
			}
		}
		// The view is read-only scaffolding: the global namespace is
		// still untouched.
		if _, err := cl.srv.Store().Resolve("/job0/out0"); err == nil {
			t.Error("building a view mutated the global namespace")
		}
		view.MustHealthy()
	})
}

func TestBuildViewMissingSource(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if _, err := c.BuildView(p, []ViewSource{{Owner: "ghost"}}); err == nil {
			t.Error("view from missing journal succeeded")
		}
	})
}

func TestBuildViewEmptySources(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		dir, _ := c.MkdirAll(p, "/x/y", 0755)
		c.Create(p, dir, "f", 0644)
		view, err := c.BuildView(p, nil)
		if err != nil {
			t.Errorf("view: %v", err)
			return
		}
		if _, err := view.Resolve("/x/y/f"); err != nil {
			t.Errorf("view missing global file: %v", err)
		}
		if !namespace.Equal(view, cl.srv.Store()) {
			t.Error("sourceless view differs from global namespace")
		}
	})
}
