package client

import (
	"errors"
	"fmt"
	gopath "path"
	"testing"

	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/monitor"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

// TestRouteFileHintsByParent: a file carries no route hint; a request
// addressed to it by inode goes to the rank whose band allocated the inode
// (mds.Cluster.rankOf), which serves it or redirects it once to the owner.
// On a two-rank cluster, under the root and under a subtree placed on
// rank 1, SetAttr and Stat of each created file reach the rank the file's
// own path routes to, at the first send. A file created under a parent
// whose path the client does not know, before that subtree moves to rank
// 1, is reached on rank 1 too: rank 0's export record redirects each
// request once, by the moved root's path. A create under that parent is
// redirected once by rank 0's bound and lands on rank 1.
func TestRouteFileHintsByParent(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := model.Default()
	obj := rados.New(eng, cfg)
	mc := mds.NewCluster(eng, cfg, obj, 2)
	mon := monitor.New(eng, mc)
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
	// served both, -1 when they split or went nowhere, and how many of the
	// two were redirected.
	reaches := func(p runtime.Task, ino namespace.Ino) (int, uint64) {
		before, redirects := served(), c.Stats().Redirects
		_, errS := c.Stat(p, ino)
		errA := c.SetAttr(p, ino, 0600, 1, 1, 0, 0)
		if err := errors.Join(errS, errA); err != nil {
			t.Errorf("stat and setattr of inode %d: %v", ino, err)
		}
		after := served()
		for r := range after {
			if after[r]-before[r] == 2 {
				return r, c.Stats().Redirects - redirects
			}
		}
		return -1, c.Stats().Redirects - redirects
	}

	eng.Spawn("test", func(p runtime.Task) {
		a, err := c.MkdirAll(p, "/a/b", 0755)
		if err != nil {
			t.Errorf("mkdir /a/b: %v", err)
			return
		}
		// A parent the client knows no path for. The file is created
		// before the Place, while rank 0 owns /a/b.
		delete(c.paths, a)
		blind, err := c.Create(p, a, "blind", 0644)
		if err != nil {
			t.Errorf("create under an unknown parent: %v", err)
			return
		}
		if got := c.pathOf(blind); got != "" {
			t.Errorf("file under an unknown parent has route %q, want none", got)
		}
		if err := mon.Place(p, "/a/b", 1); err != nil {
			t.Errorf("place: %v", err)
			return
		}
		// Rank 1 now owns the file, and rank 0 keeps only the bound /a
		// lists and the record of the export. Sent with no route, Stat and
		// SetAttr go to rank 0, the file's band, which redirects each once
		// by /a/b, and rank 1 serves them. A create under the parent is
		// bounced by rank 0, whose bound names the owner and the parent's
		// path, and the client re-sends it by that path.
		if got, redirects := reaches(p, blind); got != 1 || redirects != 2 {
			t.Errorf("file moved by a Place: SetAttr+Stat reached rank %d after %d redirects, want rank 1 after 2", got, redirects)
		}
		before := c.Stats()
		if _, err := c.Create(p, a, "late", 0644); err != nil {
			t.Errorf("create under a moved parent by inode alone: %v", err)
		}
		rpcs, redirects := c.Stats().RPCs-before.RPCs, c.Stats().Redirects-before.Redirects
		if redirects == 0 || rpcs != 2*redirects {
			t.Errorf("create under a moved parent: %d sends, %d redirected; want each RPC redirected once", rpcs, redirects)
		}
		for r, want := range []bool{false, true} {
			if _, err := mc.Rank(r).Store().Resolve("/a/b/late"); (err == nil) != want {
				t.Errorf("rank %d holds /a/b/late: %v, want %v", r, err == nil, want)
			}
		}
		// Learning the parent's path later gives the file no route either.
		c.notePath(a, "/a/b")
		if got := c.pathOf(blind); got != "" {
			t.Errorf("file created under a then unknown parent has route %q, want none", got)
		}
		if got, _ := reaches(p, blind); got != 1 {
			t.Errorf("file created under a then unknown parent: SetAttr+Stat reached rank %d, want 1", got)
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
				if got := c.pathOf(ino); got != "" {
					t.Errorf("route of %s = %q, want none", want, got)
				}
				rank := mc.Table().RankFor(want)
				if got, redirects := reaches(p, ino); got != rank || redirects != 0 {
					t.Errorf("%s: SetAttr+Stat reached rank %d after %d redirects, want %d at the first send", want, got, redirects, rank)
				}
			}
		}
	})
	eng.RunAll()
	if err := eng.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestMovedFileReachesOwner: item 20(a)'s two reproductions, on both
// backends. c0 creates /job/f and /a/b/blind on rank 0, and the cluster
// then moves /job (Migrate) and /a/b (Place) to rank 1. Another client,
// c1, which created neither file, resolves each and stats and setattrs
// it by inode: each request goes to rank 0, the inode's band, which no
// longer holds it and redirects it once by the moved root's path, and
// rank 1 serves it. A file that never moved is served at the first send.
// Rank 0's export records are volatile: once it has crashed and
// restarted, an inode-only request for the placed file (whose subtree
// was never saved, so the restarted rank does not hold it) is served
// there and answers ENOENT — the limit a cold restart that replays the
// export-commit records would lift (ROADMAP item 3).
func TestMovedFileReachesOwner(t *testing.T) {
	onTwoRanks(t, func(t *testing.T, eng runtime.Runtime, mc *mds.Cluster, c0 *Client) {
		obj := rados.New(eng, model.Default())
		c1 := New(eng, model.Default(), "c1", mc, obj)
		c1.Mount(nil)
		mon := monitor.New(eng, mc)
		eng.Spawn("test", func(p runtime.Task) {
			job, errJ := c0.MkdirAll(p, "/job", 0755)
			ab, errA := c0.MkdirAll(p, "/a/b", 0755)
			still, errS := c0.MkdirAll(p, "/still", 0755)
			var errs []error
			for _, dir := range []namespace.Ino{job, ab, still} {
				_, err := c0.Create(p, dir, "f", 0644)
				errs = append(errs, err)
			}
			errs = append(errs, errJ, errA, errS, mon.Migrate(p, "/job", 1), mon.Place(p, "/a/b", 1))
			if err := errors.Join(errs...); err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			for path, wantRedirects := range map[string]uint64{"/job/f": 1, "/a/b/f": 1, "/still/f": 0} {
				ino, err := c1.Resolve(p, path)
				if err != nil {
					t.Errorf("resolve %s: %v", path, err)
					continue
				}
				owner := mc.Table().RankFor(path)
				for _, op := range []string{"stat", "setattr"} {
					before, served := c1.Stats().Redirects, mc.Rank(owner).Metrics().Requests
					if op == "stat" {
						var st mds.Reply
						if st, err = c1.Stat(p, ino); err == nil && st.Ino != ino {
							err = fmt.Errorf("stat answered inode %d", st.Ino)
						}
					} else {
						err = c1.SetAttr(p, ino, 0600, 7, 0, 0, 0)
					}
					if redirects := c1.Stats().Redirects - before; err != nil || redirects != wantRedirects {
						t.Errorf("%s %s by inode: %v after %d redirects, want success after %d", op, path, err, redirects, wantRedirects)
					}
					if got := mc.Rank(owner).Metrics().Requests - served; got != 1 {
						t.Errorf("%s %s: the owner, rank %d, served %d requests, want 1", op, path, owner, got)
					}
				}
				if in, err := mc.Rank(owner).Store().Resolve(path); err != nil || in.UID != 7 {
					t.Errorf("owner's %s after the setattr: %+v, %v; want uid 7", path, in, err)
				}
			}

			blind, err := c1.Resolve(p, "/a/b/f")
			if err != nil {
				t.Errorf("resolve /a/b/f: %v", err)
				return
			}
			mc.Rank(0).Crash(p)
			if err := mon.Restart(p, 0); err != nil {
				t.Errorf("restart rank 0: %v", err)
				return
			}
			if _, err := c1.Stat(p, blind); !errors.Is(err, namespace.ErrNotExist) {
				t.Errorf("stat of the placed file after its source restarted: %v, want ENOENT", err)
			}
		})
		eng.RunAll()
	})
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
// nothing else — the rank answers inside the request, the request is the
// client's reused buffer, and the file's route hint is its parent's inode
// number. A request or reply allocated per RPC, a route joined per create
// (a buffer and a string) or an escaping errors.As target per RPC shows
// up here (DESIGN.md, "What one RPC costs on the real backend").
func TestCapHeldCreateAllocations(t *testing.T) {
	if allocs := createAllocs(t, false); allocs != 1 {
		t.Fatalf("a cap-held Create allocates %.0f objects, want 1", allocs)
	}
}

// TestCapLessCreateAllocations pins a Create in a shared directory — a
// lookup RPC, then the create RPC, in the one request buffer: the inode,
// and nothing else. The rank answers the lookup's miss with the bare
// ErrNotExist and the existence check drops it, so the miss builds no
// error. A request or reply per RPC, an errors.As target the redirect
// check declares for the not-found error, a lookup error built per miss,
// or a dentry cached for the shared directory shows up here.
func TestCapLessCreateAllocations(t *testing.T) {
	if allocs := createAllocs(t, true); allocs != 1 {
		t.Fatalf("a cap-less Create allocates %.0f objects, want 1", allocs)
	}
}

// TestLookupMissNamesEntry: a lookup RPC that misses reaches the caller
// as an error naming the entry and the parent inode, though the rank
// answers it with the bare sentinel. Under the root (rank 0) and under a
// subtree placed on rank 1, a missing name is ErrNotExist; a name under a
// file is ErrNotDir, from Lookup and from Create's existence check alike;
// under an inode the rank does not have, the error names that inode.
func TestLookupMissNamesEntry(t *testing.T) {
	onTwoRanks(t, func(t *testing.T, eng runtime.Runtime, mc *mds.Cluster, c *Client) {
		eng.Spawn("test", func(p runtime.Task) {
			a, err := c.MkdirAll(p, "/a", 0755)
			if err == nil {
				err = monitor.New(eng, mc).Place(p, "/a", 1)
			}
			var f namespace.Ino
			if err == nil {
				f, err = c.Create(p, a, "f", 0644)
			}
			if err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			check := func(op string, err, want error, text string) {
				if !errors.Is(err, want) || err.Error() != text {
					t.Errorf("%s: err = %v, want %q wrapping %v", op, err, text, want)
				}
			}
			for _, dir := range []namespace.Ino{namespace.RootIno, a} {
				_, err := c.Lookup(p, dir, "missing")
				check("lookup", err, namespace.ErrNotExist,
					fmt.Sprintf("lookup %q in inode %d: %v", "missing", dir, namespace.ErrNotExist))
			}
			notDir := fmt.Sprintf("lookup %q in inode %d: %v", "x", f, namespace.ErrNotDir)
			_, err = c.Lookup(p, f, "x")
			check("lookup under a file", err, namespace.ErrNotDir, notDir)
			_, err = c.Create(p, f, "x", 0644)
			check("create under a file", err, namespace.ErrNotDir, notDir)
			_, err = c.Lookup(p, 999, "x")
			check("lookup under no inode", err, namespace.ErrNotExist,
				fmt.Sprintf("inode 999: %v", namespace.ErrNotExist))
		})
		eng.RunAll()
	})
}

// onTwoRanks runs body with client c0 mounted on a two-rank cluster of
// the simulator and of the real backend.
func onTwoRanks(t *testing.T, body func(t *testing.T, eng runtime.Runtime, mc *mds.Cluster, c *Client)) {
	for _, backend := range []string{"sim", "real"} {
		t.Run(backend, func(t *testing.T) {
			var eng runtime.Runtime = sim.NewEngine(23)
			if backend == "real" {
				re := realrt.New(23)
				t.Cleanup(func() { re.Shutdown() })
				eng = re
			}
			cfg := model.Default()
			obj := rados.New(eng, cfg)
			mc := mds.NewCluster(eng, cfg, obj, 2)
			c := New(eng, cfg, "c0", mc, obj)
			c.Mount(nil)
			body(t, eng, mc, c)
		})
	}
}

// TestRenameMovesRouteHints: a directory's route hint follows it through
// a rename, and a file, which has none, is found by its inode's band. A
// file moved from /a to /b, and a directory /a/d moved to /b/d with a
// directory e under it, are reached at their new place once /b is placed
// on rank 1: the setattr of the file (redirected once by rank 0's export
// record) and creates in d and in e land on rank 1, the owner, and rank 0
// has pruned /b down to the bound its root lists. With a stale directory
// hint each create went to rank 0. Moved under a directory whose path the
// client does not know, the directories' hints are dropped.
func TestRenameMovesRouteHints(t *testing.T) {
	onTwoRanks(t, func(t *testing.T, eng runtime.Runtime, mc *mds.Cluster, c *Client) {
		eng.Spawn("test", func(p runtime.Task) {
			a, errA := c.MkdirAll(p, "/a", 0755)
			b, errB := c.MkdirAll(p, "/b", 0755)
			f, errF := c.Create(p, a, "f", 0644)
			d, errD := c.Mkdir(p, a, "d", 0755)
			e, errE := c.Mkdir(p, d, "e", 0755)
			if err := errors.Join(errA, errB, errF, errD, errE); err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			if err := errors.Join(c.Rename(p, a, "f", b, "f"), c.Rename(p, a, "d", b, "d")); err != nil {
				t.Errorf("rename: %v", err)
				return
			}
			for ino, want := range map[namespace.Ino]string{f: "", d: "/b/d", e: "/b/d/e"} {
				if got := c.pathOf(ino); got != want {
					t.Errorf("after the renames inode %d routes by %q, want %q", ino, got, want)
				}
			}
			if err := monitor.New(eng, mc).Place(p, "/b", 1); err != nil {
				t.Errorf("place: %v", err)
				return
			}
			redirects := c.Stats().Redirects
			if err := c.SetAttr(p, f, 0600, 0, 0, 0, 0); err != nil {
				t.Errorf("setattr: %v", err)
			}
			if got := c.Stats().Redirects - redirects; got != 1 {
				t.Errorf("setattr of the moved file: %d redirects, want 1", got)
			}
			_, errG := c.Create(p, d, "g", 0644)
			_, errH := c.Create(p, e, "h", 0644)
			if err := errors.Join(errG, errH); err != nil {
				t.Errorf("create in the moved directories: %v", err)
			}
			owner, stale := mc.Rank(1).Store(), mc.Rank(0).Store()
			if in, err := owner.Resolve("/b/f"); err != nil || in.Mode != 0600 {
				t.Errorf("owner's /b/f: %+v, %v; want mode 0600", in, err)
			}
			if in, err := stale.Resolve("/b"); err != nil || in.NumChildren() != 0 {
				t.Errorf("rank 0's /b after the handoff: %v; want only the bound / lists", err)
			}
			for _, path := range []string{"/b/d/g", "/b/d/e/h"} {
				if _, err := owner.Resolve(path); err != nil {
					t.Errorf("owner has no %s: %v", path, err)
				}
			}

			// Moved under a directory with no known path, the hints drop.
			x, err := c.MkdirAll(p, "/b/x", 0755)
			if err != nil {
				t.Errorf("mkdir /b/x: %v", err)
				return
			}
			delete(c.paths, x)
			if err := errors.Join(c.Rename(p, b, "f", x, "f"), c.Rename(p, b, "d", x, "d")); err != nil {
				t.Errorf("rename under /b/x: %v", err)
				return
			}
			for _, ino := range []namespace.Ino{f, d, e} {
				if got := c.pathOf(ino); got != "" {
					t.Errorf("inode %d moved under an unknown path routes by %q, want none", ino, got)
				}
			}
		})
		eng.RunAll()
	})
}
