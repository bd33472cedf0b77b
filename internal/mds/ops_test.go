package mds

import (
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

// TestClusterRankInoBandsDisjoint checks that server-assigned inode
// numbers from different ranks can never collide: each rank allocates
// from its own band.
func TestClusterRankInoBandsDisjoint(t *testing.T) {
	eng, cl := newTestCluster(8, 2)
	run(t, eng, func(p runtime.Task) {
		if _, err := cl.Rank(1).Store().MkdirAll("/b", namespace.CreateAttrs{Mode: 0755}); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		cl.Table().Place("/b", 1)
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
