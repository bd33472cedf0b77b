package client

import (
	"fmt"
	gopath "path"
	"testing"

	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

// TestRouteFileHintsJoinOnDemand: a created file's route hint is its
// parent and its name, joined only when a call addressed to the file
// routes by it. On a two-rank cluster, under the root and under a
// subtree placed on rank 1, the joined hint is byte-equal to the
// path.Join of parent path and name that used to be stored at the create,
// and SetAttr and Stat reach the rank that path routes to. A file created
// under a parent whose path the client does not know routes to rank 0.
func TestRouteFileHintsJoinOnDemand(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := model.Default()
	obj := rados.New(eng, cfg)
	mc := mds.NewCluster(eng, cfg, obj, 2)
	c := New(eng, cfg, "c0", mc, obj)
	c.Mount(nil)

	// served returns how many SetAttr and GetAttr requests each rank has
	// served.
	served := func() (n [2]uint64) {
		for r := range n {
			m := mc.Rank(r).Metrics()
			n[r] = m.ByOp[mds.OpSetAttr] + m.ByOp[mds.OpGetAttr]
		}
		return n
	}
	// reaches has c stat and setattr ino and reports the one rank that
	// served both, -1 when they split or went nowhere.
	reaches := func(p runtime.Task, ino namespace.Ino) int {
		before := served()
		c.Stat(p, ino)
		c.SetAttr(p, ino, 0600, 1, 1, 0, 0)
		after := served()
		for r := range after {
			if after[r]-before[r] == 2 {
				return r
			}
		}
		return -1
	}

	eng.Spawn("test", func(p runtime.Task) {
		a, err := c.MkdirAll(p, "/a/b", 0755)
		if err != nil {
			t.Errorf("mkdir /a/b: %v", err)
			return
		}
		if err := mc.Place(p, "/a/b", 1); err != nil {
			t.Errorf("place: %v", err)
			return
		}

		// A parent the client knows no path for: today's hint was none.
		delete(c.paths, a)
		blind, err := c.Create(p, a, "blind", 0644)
		if err != nil {
			t.Errorf("create under an unknown parent: %v", err)
			return
		}
		if got := c.pathOf(blind); got != "" {
			t.Errorf("file under an unknown parent has route %q, want none", got)
		}
		if got := reaches(p, blind); got != 0 {
			t.Errorf("file under an unknown parent: SetAttr+Stat reached rank %d, want 0", got)
		}
		// Learning the parent's path later gives the file none either.
		c.notePath(a, "/a/b")
		if got := c.pathOf(blind); got != "" {
			t.Errorf("file created under a then unknown parent has route %q, want none", got)
		}
		if got := reaches(p, blind); got != 0 {
			t.Errorf("file created under a then unknown parent: SetAttr+Stat reached rank %d, want 0", got)
		}

		for _, dirPath := range []string{"/", "/a", "/a/b"} {
			dir, err := c.Resolve(p, dirPath)
			if err != nil {
				t.Errorf("resolve %s: %v", dirPath, err)
				return
			}
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("f%d", i)
				ino, err := c.Create(p, dir, name, 0644)
				if err != nil {
					t.Errorf("create %s/%s: %v", dirPath, name, err)
					return
				}
				want := gopath.Join(dirPath, name)
				if got := c.pathOf(ino); got != want {
					t.Errorf("route of %s/%s = %q, want %q", dirPath, name, got, want)
				}
				rank := mc.Table().RankFor(want)
				if got := reaches(p, ino); got != rank {
					t.Errorf("%s: SetAttr+Stat reached rank %d, want %d", want, got, rank)
				}
			}
		}
	})
	eng.RunAll()
	if err := eng.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// createAllocs measures what one RPC create into a fresh directory costs
// the heap on the simulator, after warm creates have grown the maps a
// create adds to, so their amortised growth rounds away. With shared set,
// a second client creates in the directory first, so every create sends a
// lookup RPC before the create RPC.
func createAllocs(t *testing.T, shared bool) float64 {
	t.Helper()
	cl := newCluster()
	c, other := cl.client("c0"), cl.client("c1")
	const warm, runs = 1000, 2000
	names := make([]string, warm+runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("f%06d", i)
	}
	var allocs float64
	cl.run(t, func(p runtime.Task) {
		dir, err := c.Mkdir(p, namespace.RootIno, "d", 0755)
		if err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		if shared {
			other.Create(p, dir, "intruder", 0644)
		}
		next := 0
		create := func() {
			if _, err := c.Create(p, dir, names[next], 0644); err != nil {
				t.Errorf("create %s: %v", names[next], err)
			}
			next++
		}
		for next < warm {
			create()
		}
		if c.HoldsCap(dir) == shared {
			t.Errorf("client holds the capability: %v, want %v", c.HoldsCap(dir), !shared)
		}
		allocs = testing.AllocsPerRun(runs, create)
	})
	return allocs
}

// TestCapHeldCreateAllocations pins what one RPC create costs the heap
// when the client holds the directory's capability: the inode, and
// nothing else — the rank answers inside the request, and the request is
// the client's reused buffer. A request or reply allocated per RPC, a
// route joined per create (a buffer and a string) or an escaping
// errors.As target per RPC shows up here (DESIGN.md, "What one RPC costs
// on the real backend").
func TestCapHeldCreateAllocations(t *testing.T) {
	if allocs := createAllocs(t, false); allocs != 1 {
		t.Fatalf("a cap-held Create allocates %.0f objects, want 1", allocs)
	}
}

// TestCapLessCreateAllocations pins a Create in a shared directory — a
// lookup RPC, then the create RPC, in the one request buffer: the
// lookup's not-found error, the errors.As target the redirect check
// declares for it, and the inode. A request or reply per RPC, or a dentry
// cached for the shared directory, shows up here.
func TestCapLessCreateAllocations(t *testing.T) {
	if allocs := createAllocs(t, true); allocs != 3 {
		t.Fatalf("a cap-less Create allocates %.0f objects, want 3", allocs)
	}
}
