package workload

import (
	"fmt"
	"testing"

	"cudele/internal/client"
	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

type harness struct {
	eng runtime.Runtime
	srv *mds.Server
	obj *rados.Cluster
}

func newHarness() *harness {
	eng := sim.NewEngine(31)
	cfg := model.Default()
	obj := rados.New(eng, cfg)
	return &harness{eng: eng, srv: mds.New(eng, cfg, obj), obj: obj}
}

func (h *harness) client(name string) *client.Client {
	c := client.New(h.eng, model.Default(), name, h.srv, h.obj)
	c.Mount(nil)
	return c
}

func (h *harness) run(t *testing.T, fn func(p runtime.Task)) {
	t.Helper()
	h.eng.Spawn("test", fn)
	h.eng.RunAll()
}

func TestCreateMany(t *testing.T) {
	h := newHarness()
	c := h.client("c0")
	h.run(t, func(p runtime.Task) {
		dir, _ := c.Mkdir(p, namespace.RootIno, "d", 0755)
		created, busy, err := CreateMany(p, c, dir, 50, "f")
		if err != nil || created != 50 || busy != 0 {
			t.Errorf("create many = %d,%d,%v", created, busy, err)
		}
		names, _ := c.ReadDir(p, dir)
		if len(names) != 50 {
			t.Errorf("dir has %d names", len(names))
		}
	})
}

func TestCreateManyBusySkipped(t *testing.T) {
	h := newHarness()
	owner := h.client("owner")
	intruder := h.client("intruder")
	h.run(t, func(p runtime.Task) {
		owner.MkdirAll(p, "/mine", 0755)
		pol := &policy.Policy{
			Consistency: policy.ConsInvisible, Durability: policy.DurLocal,
			AllocatedInodes: 100, Interfere: policy.InterfereBlock,
		}
		owner.Decouple(p, "/mine", pol)
		dir, _ := intruder.Resolve(p, "/mine")
		created, busy, err := CreateMany(p, intruder, dir, 10, "x")
		if err != nil || created != 0 || busy != 10 {
			t.Errorf("blocked create many = %d,%d,%v", created, busy, err)
		}
	})
}

func TestCreateManyLocal(t *testing.T) {
	h := newHarness()
	c := h.client("c0")
	h.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", &policy.Policy{
			Consistency: policy.ConsInvisible, Durability: policy.DurNone,
			AllocatedInodes: 100,
		})
		root, _ := c.DecoupledRoot()
		n, err := CreateManyLocal(p, c, root, 100, "f")
		if err != nil || n != 100 {
			t.Errorf("local create many = %d, %v", n, err)
		}
		// Grant exhausted on the next one.
		if _, err := CreateManyLocal(p, c, root, 1, "g"); err == nil {
			t.Error("grant exhaustion not reported")
		}
	})
}

func TestInterfereRevokesCaps(t *testing.T) {
	h := newHarness()
	a := h.client("a")
	intr := h.client("intr")
	h.run(t, func(p runtime.Task) {
		dirs := make([]namespace.Ino, 3)
		for i := range dirs {
			d, _ := a.Mkdir(p, namespace.RootIno, fmt.Sprintf("d%d", i), 0755)
			a.Create(p, d, "seed", 0644)
			dirs[i] = d
		}
		created, busy := Interfere(p, intr, dirs, 2)
		if created != 6 || busy != 0 {
			t.Errorf("interfere = %d,%d", created, busy)
		}
		for _, d := range dirs {
			if !h.srv.DirShared(d) {
				t.Errorf("dir %d not shared after interference", d)
			}
		}
	})
	if h.srv.Metrics().CapRevokes != 3 {
		t.Fatalf("revokes = %d, want 3", h.srv.Metrics().CapRevokes)
	}
}

func TestCompilePhases(t *testing.T) {
	phases := CompilePhases()
	if len(phases) != 5 {
		t.Fatalf("phases = %d", len(phases))
	}
	// untar must be the create-heaviest phase (the point of Fig 2).
	var untarCreates, maxOther int
	for _, ph := range phases {
		total := (ph.Creates + ph.Mkdirs) * ph.Units
		if ph.Name == "untar" {
			untarCreates = total
		} else if total > maxOther {
			maxOther = total
		}
	}
	if untarCreates <= maxOther {
		t.Fatalf("untar creates %d not dominant (max other %d)", untarCreates, maxOther)
	}
}

func TestRunPhase(t *testing.T) {
	h := newHarness()
	c := h.client("c0")
	h.run(t, func(p runtime.Task) {
		root, _ := c.Mkdir(p, namespace.RootIno, "build", 0755)
		ph := Phase{Name: "mini", Creates: 3, Mkdirs: 1, Lookups: 2, ReadDirs: 1, Renames: 1, Units: 4}
		phaseDir, _ := c.Mkdir(p, root, ph.Name, 0755)
		ops, err := RunPhase(p, c, phaseDir, ph)
		if err != nil {
			t.Errorf("run phase: %v", err)
			return
		}
		if ops < 4*(3+1+2+1) {
			t.Errorf("ops = %d", ops)
		}
		// The phase directory exists with content.
		dir, err := c.Resolve(p, "/build/mini")
		if err != nil {
			t.Errorf("phase dir: %v", err)
			return
		}
		names, _ := c.ReadDir(p, dir)
		if len(names) == 0 {
			t.Error("phase dir empty")
		}
	})
}

func TestRunAllCompilePhases(t *testing.T) {
	h := newHarness()
	c := h.client("c0")
	h.run(t, func(p runtime.Task) {
		root, _ := c.Mkdir(p, namespace.RootIno, "linux", 0755)
		for _, ph := range CompilePhases() {
			dir, err := c.Mkdir(p, root, ph.Name, 0755)
			if err != nil {
				t.Errorf("phase dir %s: %v", ph.Name, err)
				return
			}
			if _, err := RunPhase(p, c, dir, ph); err != nil {
				t.Errorf("phase %s: %v", ph.Name, err)
				return
			}
		}
	})
	if h.srv.Metrics().Requests == 0 {
		t.Fatal("no requests issued")
	}
}
