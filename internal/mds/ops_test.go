package mds

import (
	"errors"
	"fmt"
	"math/rand"
	gopath "path"
	"slices"
	"strings"
	"testing"

	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

// TestOpTableComplete is the registry's completeness check: every op below
// opMax must carry a wire name and a handler, and the derived metadata
// (String, Mutates, service-time class) must be self-consistent. Adding an
// Op without filling in its opTable row fails here, not at runtime.
func TestOpTableComplete(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < opMax; op++ {
		info := opTable[op]
		if info.name == "" {
			t.Errorf("op %d: no name in opTable", op)
			continue
		}
		if info.handler == nil {
			t.Errorf("op %s: no handler in opTable", info.name)
		}
		if prev, dup := seen[info.name]; dup {
			t.Errorf("ops %d and %d share the name %q", prev, op, info.name)
		}
		seen[info.name] = op
		if op.String() != info.name {
			t.Errorf("op %d String() = %q, want %q", op, op.String(), info.name)
		}
		if op.Mutates() != info.mutates {
			t.Errorf("op %s Mutates() = %v, table says %v", info.name, op.Mutates(), info.mutates)
		}
		if info.mutates && info.lookup {
			t.Errorf("op %s is both mutating and lookup-billed", info.name)
		}
		// Every mutating op must journal: requestEvent is the stream
		// mechanism's view of the table.
		_, ok := requestEvent(&Request{Op: op, Name: "x", NewName: "y"}, &Reply{})
		if info.mutates && !ok {
			t.Errorf("mutating op %s produces no journal event", info.name)
		}
		if !info.mutates && ok {
			t.Errorf("read-only op %s produces a journal event", info.name)
		}
	}
	if got := Op(opMax).String(); !strings.HasPrefix(got, "Op(") {
		t.Errorf("out-of-range op String() = %q", got)
	}
	if Op(opMax).Mutates() {
		t.Error("out-of-range op reported as mutating")
	}
}

// newTestCluster builds a cluster with client c0's session open on every
// rank.
func newTestCluster(seed int64, ranks int) (runtime.Runtime, *Cluster) {
	eng := sim.NewEngine(seed)
	cl := NewCluster(eng, model.Default(), rados.New(eng, model.Default()), ranks)
	for i := range ranks {
		cl.Rank(i).OpenSession("c0")
	}
	return eng, cl
}

// TestClusterRoutesPlacedSubtree pins /proj on rank 1 of a 3-rank cluster
// and checks that requests routed by path land only on the owning rank.
func TestClusterRoutesPlacedSubtree(t *testing.T) {
	eng, cl := newTestCluster(7, 3)
	run(t, eng, func(p runtime.Task) {
		if _, err := cl.Rank(0).Store().MkdirAll("/proj", namespace.CreateAttrs{Mode: 0755}); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := cl.Place(p, "/proj", 1); err != nil {
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
		r := cl.Call(p, &Request{
			Op: OpCreate, Client: "c0", Parent: in.Ino, Name: "f", Mode: 0644,
			Route: "/proj",
		}).(*Reply)
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

// TestClusterRankInoBandsDisjoint checks that server-assigned inode
// numbers from different ranks can never collide: each rank allocates
// from its own band.
func TestClusterRankInoBandsDisjoint(t *testing.T) {
	eng, cl := newTestCluster(8, 2)
	run(t, eng, func(p runtime.Task) {
		if _, err := cl.Rank(0).Store().MkdirAll("/b", namespace.CreateAttrs{Mode: 0755}); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := cl.Place(p, "/b", 1); err != nil {
			t.Fatalf("place: %v", err)
		}
		r0 := cl.Call(p, &Request{Op: OpCreate, Client: "c0",
			Parent: namespace.RootIno, Name: "f0", Mode: 0644, Route: "/"}).(*Reply)
		bIno, _ := cl.Rank(1).Store().Resolve("/b")
		r1 := cl.Call(p, &Request{Op: OpCreate, Client: "c0",
			Parent: bIno.Ino, Name: "f1", Mode: 0644, Route: "/b"}).(*Reply)
		if r0.Err != nil || r1.Err != nil {
			t.Fatalf("creates: %v, %v", r0.Err, r1.Err)
		}
		if r0.Ino >= rankInoFloor(1) {
			t.Errorf("rank 0 ino %d inside rank 1's band", r0.Ino)
		}
		if r1.Ino < rankInoFloor(1) {
			t.Errorf("rank 1 ino %d below its band floor %d", r1.Ino, rankInoFloor(1))
		}
	})
}

// TestRoutePlaceRefusesFilesAndFilesRouteByParent: over generated trees
// and placements on a three-rank cluster, Place refuses a path that
// resolves to a file, on the same-rank branch and the cross-rank one,
// and leaves the table as it was; so a file is never a placement root,
// and every file's path and its parent's give the same RankFor and
// SubtreeFor — which is why a client routes a file's requests by its
// parent.
func TestRoutePlaceRefusesFilesAndFilesRouteByParent(t *testing.T) {
	const ranks = 3
	for seed := int64(1); seed <= 20; seed++ {
		eng, cl := newTestCluster(seed, ranks)
		rng := rand.New(rand.NewSource(seed))
		dirs := []string{"/"}
		var files []string
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
			if _, err := st.Create(dir.Ino, name, namespace.CreateAttrs{Mode: 0644}); err != nil {
				t.Fatal(err)
			}
			files = append(files, gopath.Join(parent, name))
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
					if err := cl.Place(p, file, rank); !errors.Is(err, namespace.ErrNotDir) {
						t.Errorf("seed %d: place file %s on rank %d (owner %d): %v, want ErrNotDir", seed, file, rank, owner, err)
					}
					if after := tb.Paths(); !slices.Equal(before, after) {
						t.Errorf("seed %d: refused place of %s moved the table %v -> %v", seed, file, before, after)
					}
				}
				if dir := dirs[rng.Intn(len(dirs))]; dir != "/" {
					if err := cl.Place(p, dir, rng.Intn(ranks)); err != nil {
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
				}
			}
		})
	}
}
