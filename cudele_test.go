package cudele

import (
	"errors"
	"fmt"
	"testing"

	"cudele/internal/namespace"
	"cudele/internal/policy"
)

func TestQuickstartFlow(t *testing.T) {
	cl := NewCluster()
	c := cl.NewClient("client.0")
	cl.Run(func(p Proc) {
		dir, err := c.MkdirAll(p, "/home/alice/job", 0755)
		if err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		if _, err := c.Create(p, dir, "input.txt", 0644); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		entry, err := cl.Decouple(p, c, "/home/alice/job",
			"consistency: weak\ndurability: local\nallocated_inodes: 1000\n")
		if err != nil {
			t.Errorf("decouple: %v", err)
			return
		}
		if entry.Policy.GrantN != 1000 {
			t.Errorf("grant = %d", entry.Policy.GrantN)
		}
		root, _ := c.DecoupledRoot()
		for i := 0; i < 100; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("ckpt.%d", i), 0644); err != nil {
				t.Errorf("local create: %v", err)
				return
			}
		}
		comp, _ := entry.Policy.Composition()
		if err := c.RunComposition(p, comp); err != nil {
			t.Errorf("composition: %v", err)
			return
		}
		// Merged results visible globally.
		if _, err := cl.MDS().Store().Resolve("/home/alice/job/ckpt.99"); err != nil {
			t.Errorf("merged file missing: %v", err)
		}
	})
}

func TestDecoupledMergeEqualsRPCNamespace(t *testing.T) {
	// The headline invariant: "decoupled: create + merge" ends in the
	// same namespace as plain RPC creates.
	build := func(decoupled bool) *Cluster {
		cl := NewCluster(WithSeed(7))
		c := cl.NewClient("c0")
		cl.Run(func(p Proc) {
			dir, _ := c.MkdirAll(p, "/job", 0755)
			if decoupled {
				if _, err := cl.Decouple(p, c, "/job", "consistency: weak\ndurability: none\nallocated_inodes: 500\n"); err != nil {
					t.Errorf("decouple: %v", err)
					return
				}
				root, _ := c.DecoupledRoot()
				sub, _ := c.LocalMkdir(p, root, "sub", 0755)
				for i := 0; i < 200; i++ {
					c.LocalCreate(p, root, fmt.Sprintf("f%04d", i), 0644)
				}
				c.LocalCreate(p, sub, "deep", 0644)
				if _, _, err := c.Merge(p); err != nil {
					t.Errorf("merge: %v", err)
				}
			} else {
				sub, _ := c.Mkdir(p, dir, "sub", 0755)
				for i := 0; i < 200; i++ {
					c.Create(p, dir, fmt.Sprintf("f%04d", i), 0644)
				}
				c.Create(p, sub, "deep", 0644)
			}
		})
		return cl
	}
	rpc := build(false)
	dec := build(true)
	if !namespace.Equal(rpc.MDS().Store(), dec.MDS().Store()) {
		t.Fatal("decoupled+merge namespace differs from RPC namespace")
	}
}

func TestAllTableICellsEndToEnd(t *testing.T) {
	// Execute every Table I composition on a live cluster and verify the
	// semantics each cell promises.
	for _, cons := range []policy.Consistency{ConsInvisible, ConsWeak, ConsStrong} {
		for _, dur := range []policy.Durability{DurNone, DurLocal, DurGlobal} {
			cons, dur := cons, dur
			name := fmt.Sprintf("%v-%v", cons, dur)
			t.Run(name, func(t *testing.T) {
				cl := NewCluster()
				c := cl.NewClient("c0")
				cl.Run(func(p Proc) {
					c.MkdirAll(p, "/job", 0755)
					cl.MDS().SaveStore(p) // seed object store for nonvolatile paths
					pol := &Policy{Consistency: cons, Durability: dur, AllocatedInodes: 100}
					if _, err := cl.DecouplePolicy(p, c, "/job", pol); err != nil {
						t.Errorf("decouple: %v", err)
						return
					}
					comp, err := pol.Composition()
					if err != nil {
						t.Errorf("composition: %v", err)
						return
					}
					// Workload: strong consistency uses RPCs; others
					// write the client journal.
					dir, _ := c.Resolve(p, "/job")
					if cons == ConsStrong {
						for i := 0; i < 10; i++ {
							if _, err := c.Create(p, dir, fmt.Sprintf("f%d", i), 0644); err != nil {
								t.Errorf("rpc create: %v", err)
								return
							}
						}
					} else {
						root, _ := c.DecoupledRoot()
						for i := 0; i < 10; i++ {
							if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
								t.Errorf("local create: %v", err)
								return
							}
						}
					}
					if err := c.RunComposition(p, comp); err != nil {
						t.Errorf("run composition: %v", err)
						return
					}
					// Verify per-cell semantics.
					_, globallyVisible := cl.MDS().Store().Resolve("/job/f9")
					switch cons {
					case ConsStrong, ConsWeak:
						if globallyVisible != nil {
							t.Errorf("updates not globally visible: %v", globallyVisible)
						}
					case ConsInvisible:
						if globallyVisible == nil {
							t.Error("invisible consistency leaked updates into the global namespace")
						}
					}
					if dur == DurLocal && cons != ConsStrong {
						if _, ok := c.LocalJournalFile(); !ok {
							t.Error("local durability did not persist the journal")
						}
					}
					if dur == DurGlobal && cons != ConsStrong {
						if _, err := c.FetchGlobalJournal(p, "c0"); err != nil {
							t.Errorf("global durability did not persist the journal: %v", err)
						}
					}
					// Stream is the subtree's: the rank journals the RPC
					// updates of /job exactly when its composition streams.
					want := uint64(0)
					if comp.Contains(policy.MechStream) {
						want = 10
					}
					if got := cl.MDS().Metrics().Journaled; got != want {
						t.Errorf("%d updates journaled, want %d", got, want)
					}
				})
			})
		}
	}
}

func TestDynamicSemanticsChange(t *testing.T) {
	// Paper §VII: change a subtree from weaker to stronger guarantees
	// without moving data.
	cl := NewCluster()
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		c.MkdirAll(p, "/hdfs", 0755)
		if _, err := cl.Decouple(p, c, "/hdfs", "consistency: weak\ndurability: local\nallocated_inodes: 50\n"); err != nil {
			t.Errorf("decouple: %v", err)
			return
		}
		root, _ := c.DecoupledRoot()
		for i := 0; i < 10; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("part-%05d", i), 0644)
		}
		// Merge, then tighten semantics to POSIX.
		if _, _, err := c.Merge(p); err != nil {
			t.Errorf("merge: %v", err)
			return
		}
		if _, err := cl.Decouple(p, c, "/hdfs", "consistency: strong\ndurability: global\n"); err != nil {
			t.Errorf("re-register: %v", err)
			return
		}
		// The data never moved; new ops are strongly consistent RPCs.
		dir, _ := c.Resolve(p, "/hdfs")
		if _, err := c.Create(p, dir, "_SUCCESS", 0644); err != nil {
			t.Errorf("posix create: %v", err)
		}
		names, _ := cl.MDS().Store().ReadDir(dir)
		if len(names) != 11 {
			t.Errorf("names = %d, want 11", len(names))
		}
	})
	if epoch, _ := cl.CollectMetrics().Value("cudele_mon_epoch"); epoch != 2 {
		t.Fatalf("epoch = %v", epoch)
	}
}

func TestClusterDeterminism(t *testing.T) {
	runOnce := func() float64 {
		cl := NewCluster(WithSeed(99))
		cs := make([]*Client, 4)
		for i := range cs {
			cs[i] = cl.NewClient(fmt.Sprintf("c%d", i))
		}
		for i, c := range cs {
			i, c := i, c
			cl.Go("w", func(p Proc) {
				dir, _ := c.Mkdir(p, RootIno, fmt.Sprintf("d%d", i), 0755)
				for k := 0; k < 200; k++ {
					c.Create(p, dir, fmt.Sprintf("f%d", k), 0644)
				}
			})
		}
		return cl.RunAll()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("nondeterministic cluster run: %v vs %v", a, b)
	}
}

func TestDuplicateClientPanics(t *testing.T) {
	cl := NewCluster()
	cl.NewClient("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate client did not panic")
		}
	}()
	cl.NewClient("x")
}

func TestInvalidConfigPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumOSDs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewCluster(WithConfig(cfg))
}

func TestRecoupleUnknown(t *testing.T) {
	cl := NewCluster()
	cl.Run(func(p Proc) {
		if err := cl.Recouple(p, "/ghost"); err == nil {
			t.Error("recoupling unknown subtree succeeded")
		}
	})
}

func TestDecoupleErrorPropagation(t *testing.T) {
	cl := NewCluster()
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		if _, err := cl.Decouple(p, c, "/missing", ""); !errors.Is(err, namespace.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
		if _, err := cl.Decouple(p, c, "/", "bad policies"); err == nil {
			t.Error("bad policies accepted")
		}
	})
}

func TestCompileTableIExport(t *testing.T) {
	comp, err := CompileTableI(ConsWeak, DurLocal)
	if err != nil || comp.String() != "append_client_journal+local_persist+volatile_apply" {
		t.Fatalf("compile = %q, %v", comp, err)
	}
}
