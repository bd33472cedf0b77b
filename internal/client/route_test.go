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
// routes by it. On a two-rank cluster, under a placed subtree and under a
// directory split across both ranks, the joined hint is byte-equal to the
// path.Join of parent path and name that used to be stored at the create,
// and SetAttr and Stat reach the rank that path routes to. A file created
// under a parent whose path the client does not know routes to rank 0.
func TestRouteFileHintsJoinOnDemand(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := model.Default()
	obj := rados.New(eng, cfg)
	mc := mds.NewCluster(eng, cfg, obj, 2)
	portal := mc.Portal()
	c := New(eng, cfg, "c0", portal, obj)
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
		portal.Refresh()

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

		if _, err := c.MkdirAll(p, "/s", 0755); err != nil {
			t.Errorf("mkdir /s: %v", err)
			return
		}
		if err := mc.ReplicateSubtree(p, "/s", 1); err != nil {
			t.Errorf("replicate /s: %v", err)
			return
		}
		mc.SplitCommit("/s", []int{0, 1})
		portal.Refresh()

		for _, dirPath := range []string{"/", "/a", "/a/b", "/s"} {
			dir, err := c.Resolve(p, dirPath)
			if err != nil {
				t.Errorf("resolve %s: %v", dirPath, err)
				return
			}
			ranks := map[int]bool{}
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
				rank := portal.Table().RankFor(want)
				if got := reaches(p, ino); got != rank {
					t.Errorf("%s: SetAttr+Stat reached rank %d, want %d", want, got, rank)
				}
				ranks[rank] = true
			}
			if dirPath == "/s" && len(ranks) != 2 {
				t.Errorf("files under the split /s reached ranks %v, want both", ranks)
			}
		}
	})
	eng.RunAll()
	if err := eng.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCapHeldCreateAllocations pins what one RPC create costs the heap
// when the client holds the directory's capability, on the simulator:
// the request, the reply and the inode; the amortised growth of the maps
// a create adds to rounds away. A route joined per create (a buffer and a
// string) or an escaping errors.As target per RPC shows up here
// (DESIGN.md, "What one RPC costs on the real backend").
func TestCapHeldCreateAllocations(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
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
		if !c.HoldsCap(dir) {
			t.Error("client holds no capability on its directory")
		}
		allocs = testing.AllocsPerRun(runs, create)
	})
	if allocs != 3 {
		t.Fatalf("a cap-held Create allocates %.0f objects, want 3", allocs)
	}
}
