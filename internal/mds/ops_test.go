package mds

import (
	"strings"
	"testing"

	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
	"cudele/internal/transport"
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
		ev := requestEvent(&Request{Op: op, Name: "x", NewName: "y"}, &Reply{})
		if info.mutates && op != OpRmdir && ev == nil {
			t.Errorf("mutating op %s produces no journal event", info.name)
		}
		if !info.mutates && ev != nil {
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

func newTestCluster(seed int64, ranks int) (runtime.Runtime, *Cluster) {
	eng := sim.NewEngine(seed)
	obj := rados.New(eng, model.Default())
	return eng, NewCluster(eng, model.Default(), obj, ranks)
}

// TestClusterRoutesPlacedSubtree pins /proj on rank 1 of a 3-rank cluster
// and checks that requests routed by path land only on the owning rank.
func TestClusterRoutesPlacedSubtree(t *testing.T) {
	eng, cl := newTestCluster(7, 3)
	cl.OpenSession("c0")
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
		r := cl.Endpoint().Call(p, &Request{
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
	cl.OpenSession("c0")
	run(t, eng, func(p runtime.Task) {
		if _, err := cl.Rank(0).Store().MkdirAll("/b", namespace.CreateAttrs{Mode: 0755}); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := cl.Place(p, "/b", 1); err != nil {
			t.Fatalf("place: %v", err)
		}
		r0 := cl.Endpoint().Call(p, &Request{Op: OpCreate, Client: "c0",
			Parent: namespace.RootIno, Name: "f0", Mode: 0644, Route: "/"}).(*Reply)
		bIno, _ := cl.Rank(1).Store().Resolve("/b")
		r1 := cl.Endpoint().Call(p, &Request{Op: OpCreate, Client: "c0",
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

// TestPortalReplicaRouting checks that a portal built before a placement
// keeps routing by its replica until the table is refreshed — and follows
// the move once CopyFrom lands, the monitor's publish path.
func TestPortalReplicaRouting(t *testing.T) {
	eng, cl := newTestCluster(9, 2)
	cl.OpenSession("c0")
	run(t, eng, func(p runtime.Task) {
		if _, err := cl.Rank(0).Store().MkdirAll("/d", namespace.CreateAttrs{Mode: 0755}); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		portal := cl.Portal()
		if err := cl.Place(p, "/d", 1); err != nil {
			t.Fatalf("place: %v", err)
		}
		if got := portal.Table().RankFor("/d"); got != 0 {
			t.Fatalf("stale replica already routes /d to rank %d", got)
		}
		portal.Table().CopyFrom(cl.Table())
		if got := portal.Table().RankFor("/d"); got != 1 {
			t.Fatalf("refreshed replica routes /d to rank %d, want 1", got)
		}
		in, _ := cl.Rank(1).Store().Resolve("/d")
		before := cl.Rank(1).Metrics().Requests
		r := portal.Call(p, &Request{Op: OpCreate, Client: "c0",
			Parent: in.Ino, Name: "f", Mode: 0644, Route: "/d"}).(*Reply)
		if r.Err != nil {
			t.Fatalf("portal create: %v", r.Err)
		}
		if cl.Rank(1).Metrics().Requests != before+1 {
			t.Error("portal request did not land on rank 1")
		}
	})
}

// TestClusterOneRankMatchesSingleServer replays the same scripted RPC
// sequence against mds.New and a 1-rank Cluster portal and requires
// identical virtual-time completion — the refactor's no-regression
// contract for the default deployment.
func TestClusterOneRankMatchesSingleServer(t *testing.T) {
	script := func(submit func(p runtime.Task, req *Request) *Reply) func(eng runtime.Runtime) runtime.Time {
		return func(eng runtime.Runtime) runtime.Time {
			var end runtime.Time
			eng.Spawn("script", func(p runtime.Task) {
				mk := submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: "d", Mode: 0755, Route: "/"})
				if mk.Err != nil {
					t.Errorf("mkdir: %v", mk.Err)
					return
				}
				for i := 0; i < 20; i++ {
					r := submit(p, &Request{Op: OpCreate, Client: "c0", Parent: mk.Ino, Name: nameN(i), Mode: 0644, Route: "/d"})
					if r.Err != nil {
						t.Errorf("create %d: %v", i, r.Err)
						return
					}
				}
				submit(p, &Request{Op: OpReadDir, Client: "c0", Parent: mk.Ino, Route: "/d"})
				end = p.Now()
			})
			eng.RunAll()
			return end
		}
	}

	engA := sim.NewEngine(3)
	srv := New(engA, model.Default(), rados.New(engA, model.Default()))
	srv.OpenSession("c0")
	single := script(func(p runtime.Task, req *Request) *Reply { return srv.Submit(p, req) })(engA)

	engB, cl := newTestCluster(3, 1)
	cl.OpenSession("c0")
	portal := cl.Portal()
	viaPortal := script(func(p runtime.Task, req *Request) *Reply {
		return transport.Endpoint(portal).Call(p, req).(*Reply)
	})(engB)

	if single != viaPortal {
		t.Fatalf("1-rank portal time %v != single-server time %v", viaPortal, single)
	}
}

func nameN(i int) string {
	return "f" + string(rune('a'+i/10)) + string(rune('0'+i%10))
}
