package monitor

import (
	"errors"
	"strings"
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

func newTestMonitor() (runtime.Runtime, *mds.Server, *Monitor) {
	eng, cl, m := newTestCluster(1)
	return eng, cl.Rank(0), m
}

func newTestCluster(ranks int) (runtime.Runtime, *mds.Cluster, *Monitor) {
	eng := sim.NewEngine(5)
	obj := rados.New(eng, model.Default())
	cl := mds.NewCluster(eng, model.Default(), obj, ranks)
	return eng, cl, New(eng, cl)
}

// parse reads a policies file the way the facade's Decouple does.
func parse(t *testing.T, text string) *policy.Policy {
	t.Helper()
	pol, err := policy.ParseFile(text)
	if err != nil {
		t.Fatalf("policies file %q: %v", text, err)
	}
	return pol
}

func run(t *testing.T, eng runtime.Runtime, fn func(p runtime.Task)) {
	t.Helper()
	eng.Spawn("test", fn)
	eng.RunAll()
}

func mkdirs(t *testing.T, eng runtime.Runtime, srv *mds.Server, path string) {
	t.Helper()
	run(t, eng, func(p runtime.Task) {
		if _, err := srv.Store().MkdirAll(path, namespace.CreateAttrs{Mode: 0755}); err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
	})
}

func TestRegisterParsesAndGrants(t *testing.T) {
	eng, srv, m := newTestMonitor()
	mkdirs(t, eng, srv, "/msevilla/mydir")
	run(t, eng, func(p runtime.Task) {
		e, err := m.RegisterPolicy(p, "/msevilla/mydir",
			parse(t, "consistency: weak\ndurability: local\nallocated_inodes: 5000\ninterfere: block\n"), "client.0")
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		if e.Policy.GrantN != 5000 || e.Policy.GrantLo == 0 {
			t.Errorf("grant = [%d,+%d)", e.Policy.GrantLo, e.Policy.GrantN)
		}
		if e.Epoch != 1 || e.Policy.Version != 1 {
			t.Errorf("epoch = %d, version = %d", e.Epoch, e.Policy.Version)
		}
		if e.Policy.Interfere != policy.InterfereBlock {
			t.Errorf("interfere = %v", e.Policy.Interfere)
		}
	})
	if m.epoch != 1 {
		t.Fatalf("epoch = %d", m.epoch)
	}
	// The MDS now enforces the policy.
	in, err := srv.Store().Resolve("/msevilla/mydir")
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := srv.Owner(in.Ino); !ok || owner != "client.0" {
		t.Fatalf("owner = %q, %v", owner, ok)
	}
}

// TestOnePolicyTwoRegistrations: one *Policy registered at two paths for
// two owners makes two registrations. Each record keeps its own Version,
// owner and grant, each rank inode names its own owner, and the caller's
// policy is never written.
func TestOnePolicyTwoRegistrations(t *testing.T) {
	eng, srv, m := newTestMonitor()
	mkdirs(t, eng, srv, "/a")
	mkdirs(t, eng, srv, "/b")
	pol := parse(t, "consistency: weak\ndurability: none\ninterfere: block\n")
	var ea, eb *Subtree
	run(t, eng, func(p runtime.Task) {
		var err error
		if ea, err = m.RegisterPolicy(p, "/a", pol, "c0"); err != nil {
			t.Fatalf("register /a: %v", err)
		}
		if eb, err = m.RegisterPolicy(p, "/b", pol, "c1"); err != nil {
			t.Fatalf("register /b: %v", err)
		}
	})
	for _, c := range []struct {
		e       *Subtree
		version uint64
		owner   string
	}{{ea, 1, "c0"}, {eb, 2, "c1"}} {
		reg := c.e.Policy
		if reg.Version != c.version || c.e.Epoch != c.version || reg.Owner != c.owner {
			t.Errorf("%s: version %d, epoch %d, owner %q; want %d, %d, %q",
				c.e.Path, reg.Version, c.e.Epoch, reg.Owner, c.version, c.version, c.owner)
		}
		in, err := srv.Store().Resolve(c.e.Path)
		if err != nil {
			t.Fatal(err)
		}
		if owner, ok := srv.Owner(in.Ino); !ok || owner != c.owner {
			t.Errorf("%s: rank owner = %q, %v; want %q", c.e.Path, owner, ok, c.owner)
		}
	}
	if a, b := ea.Policy, eb.Policy; a.GrantLo == b.GrantLo || a.GrantN != 100 || b.GrantN != 100 {
		t.Errorf("grants [%d,+%d) and [%d,+%d), want two distinct 100-inode grants", a.GrantLo, a.GrantN, b.GrantLo, b.GrantN)
	}
	if pol.Version != 0 || pol.Owner != "" || pol.GrantN != 0 {
		t.Errorf("the caller's policy was stamped: %+v", pol)
	}
}

func TestRegisterEmptyPoliciesFileIsCephFS(t *testing.T) {
	// Paper §III-C: decoupling with an empty policies file gives the
	// application 100 inodes but stock CephFS behaviour.
	eng, srv, m := newTestMonitor()
	mkdirs(t, eng, srv, "/d")
	run(t, eng, func(p runtime.Task) {
		e, err := m.RegisterPolicy(p, "/d", parse(t, ""), "c0")
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		if e.Policy.GrantN != 100 {
			t.Errorf("default grant = %d, want 100", e.Policy.GrantN)
		}
		comp, _ := e.Policy.Composition()
		if comp.String() != "rpcs+stream" {
			t.Errorf("default composition = %q", comp)
		}
	})
}

func TestRegisterErrors(t *testing.T) {
	eng, srv, m := newTestMonitor()
	mkdirs(t, eng, srv, "/d")
	run(t, eng, func(p runtime.Task) {
		if _, err := m.RegisterPolicy(p, "/missing", parse(t, ""), "c0"); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("missing path err = %v", err)
		}
	})
}

func TestUnregister(t *testing.T) {
	eng, srv, m := newTestMonitor()
	mkdirs(t, eng, srv, "/d")
	run(t, eng, func(p runtime.Task) {
		if _, err := m.RegisterPolicy(p, "/d", parse(t, "interfere: block"), "c0"); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		if err := m.Unregister(p, "/d"); err != nil {
			t.Errorf("unregister: %v", err)
		}
		if err := m.Unregister(p, "/d"); !errors.Is(err, ErrUnknownSubtree) {
			t.Errorf("double unregister err = %v", err)
		}
	})
	if _, ok := m.Lookup("/d"); ok {
		t.Fatal("unregistered subtree still registered")
	}
	if m.epoch != 2 {
		t.Fatalf("epoch = %d, want 2", m.epoch)
	}
}

func TestSubtreesSortedAndDescribe(t *testing.T) {
	eng, srv, m := newTestMonitor()
	mkdirs(t, eng, srv, "/b")
	mkdirs(t, eng, srv, "/a")
	run(t, eng, func(p runtime.Task) {
		m.RegisterPolicy(p, "/b", parse(t, "consistency: weak\ndurability: local"), "c1")
		m.RegisterPolicy(p, "/a", parse(t, "consistency: invisible\ndurability: none"), "c0")
	})
	subs := m.Subtrees()
	if len(subs) != 2 || subs[0].Path != "/a" || subs[1].Path != "/b" {
		t.Fatalf("subtrees = %+v", subs)
	}
	desc := m.Describe()
	for _, want := range []string{"epoch 2", "/a", "/b", "append_client_journal"} {
		if !strings.Contains(desc, want) {
			t.Errorf("describe missing %q:\n%s", want, desc)
		}
	}
}

func TestLookup(t *testing.T) {
	eng, srv, m := newTestMonitor()
	mkdirs(t, eng, srv, "/d")
	run(t, eng, func(p runtime.Task) {
		m.RegisterPolicy(p, "/d", parse(t, ""), "c0")
	})
	if _, ok := m.Lookup("/d"); !ok {
		t.Fatal("registered subtree not found")
	}
	if _, ok := m.Lookup("/nope"); ok {
		t.Fatal("phantom subtree found")
	}
}

// TestPlaceWindowRoutesToOwner: a create routed as soon as a placement
// shows in the cluster's table — after the flip, before Place has
// returned — lands on the new owner. It fails if a client routes by
// anything that lags the cluster's table, such as a copy refreshed only
// when the placement ends: rank 0 then serves and acknowledges the
// create from its stale copy of /d.
func TestPlaceWindowRoutesToOwner(t *testing.T) {
	eng, cl, m := newTestCluster(2)
	mkdirs(t, eng, cl.Rank(0), "/d")
	in, err := cl.Rank(0).Store().Resolve("/d")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cl.Ranks(); r++ {
		cl.Rank(r).OpenSession("c0")
	}
	var reply *mds.Reply
	eng.Spawn("place", func(p runtime.Task) {
		if err := m.Place(p, "/d", 1); err != nil {
			t.Errorf("place: %v", err)
		}
	})
	eng.Spawn("create", func(p runtime.Task) {
		for polls := 0; cl.Table().RankFor("/d") != 1; polls++ {
			if polls == 1_000_000 {
				t.Error("the table never placed /d on rank 1")
				return
			}
			p.Sleep(time.Microsecond)
		}
		reply = cl.Call(p, &mds.Request{Op: mds.OpCreate, Client: "c0",
			Parent: in.Ino, Name: "f", Mode: 0644, Route: "/d"}).(*mds.Reply)
	})
	eng.RunAll()
	if reply == nil || reply.Err != nil {
		t.Fatalf("create in the placement window: %+v", reply)
	}
	if _, err := cl.Rank(1).Store().Lookup(in.Ino, "f"); err != nil {
		t.Errorf("acknowledged create is missing from the owner, rank 1: %v", err)
	}
	if _, err := cl.Rank(0).Store().Lookup(in.Ino, "f"); err == nil {
		t.Error("acknowledged create landed in rank 0's stale copy of /d")
	}
}

func TestReRegisterReplacesPolicy(t *testing.T) {
	// Dynamically changing a subtree's semantics (paper §VII): register
	// again with a different policy.
	eng, srv, m := newTestMonitor()
	mkdirs(t, eng, srv, "/d")
	run(t, eng, func(p runtime.Task) {
		m.RegisterPolicy(p, "/d", parse(t, "consistency: invisible\ndurability: none"), "c0")
		e, err := m.RegisterPolicy(p, "/d", parse(t, "consistency: strong\ndurability: global"), "c0")
		if err != nil {
			t.Errorf("re-register: %v", err)
			return
		}
		if e.Policy.Consistency != policy.ConsStrong {
			t.Errorf("policy = %v", e.Policy.Consistency)
		}
		if e.Epoch != 2 {
			t.Errorf("epoch = %d", e.Epoch)
		}
	})
}
