package cudele

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cudele/internal/namespace"
	"cudele/internal/policy"
)

// TestHeatDoesNotPerturb holds heat accounting to the observation
// contract on the simulator: a two-rank storm with RPC creates on both
// ranks, an interferer creating in another client's directory and in a
// decoupled subtree, two decoupled clients merging their journals, and a
// subtree migrated mid-run must end at the same virtual time with the
// same store image on every rank, the same metrics and the same trace
// whether or not EnableHeat is on. The accountant reads the clock but
// charges no time and draws no randomness, so nothing may differ; the
// trace is what shows a nanosecond charged where no total moves (after a
// merge's last apply, say).
func TestHeatDoesNotPerturb(t *testing.T) {
	plain, heated := heatStorm(t, false), heatStorm(t, true)
	if plain.virt != heated.virt {
		t.Errorf("virtual time %v without heat, %v with it", plain.virt, heated.virt)
	}
	if plain.image != heated.image {
		t.Errorf("store image differs with heat on:\n--- without ---\n%s\n--- with ---\n%s", plain.image, heated.image)
	}
	if plain.metrics != heated.metrics {
		t.Errorf("metrics differ with heat on:\n--- without ---\n%s\n--- with ---\n%s", plain.metrics, heated.metrics)
	}
	if plain.trace != heated.trace {
		t.Errorf("the trace differs with heat on (%d bytes without, %d with)", len(plain.trace), len(heated.trace))
	}
}

// stormOutcome is what TestHeatDoesNotPerturb compares: a run's virtual
// time, every rank's store image (each owned path with its inode), the
// Prometheus dump of the cluster's metrics and its Chrome trace.
type stormOutcome struct {
	virt                  float64
	image, metrics, trace string
}

// heatStorm runs the storm TestHeatDoesNotPerturb compares, with heat
// accounting on or off.
func heatStorm(t *testing.T, heat bool) stormOutcome {
	t.Helper()
	const creates, localOps, interferes = 200, 100, 40
	cl := NewCluster(WithSeed(13), WithMDSRanks(2))
	defer cl.Close()
	rec := cl.EnableTracing()
	if heat {
		cl.EnableHeat(0)
	}
	rpc := []*Client{cl.NewClient("rpc0"), cl.NewClient("rpc1")}
	dec := []*Client{cl.NewClient("dec0"), cl.NewClient("dec1")}
	modes := []policy.Consistency{ConsWeak, ConsStrongEventual}
	intf := cl.NewClient("interferer")
	dirs := make([]Ino, len(rpc))
	cl.Run(func(p Proc) {
		for i, c := range rpc {
			path := fmt.Sprintf("/r%d", i)
			d, err := c.MkdirAll(p, path, 0755)
			if err == nil {
				dirs[i] = d
				err = cl.Monitor().Place(p, path, i)
			}
			if err != nil {
				t.Fatalf("set up %s: %v", path, err)
			}
		}
		for j, c := range dec {
			path := fmt.Sprintf("/d%d", j)
			_, err := c.MkdirAll(p, path, 0755)
			if err == nil {
				err = cl.Monitor().Place(p, path, 1-j)
			}
			if err == nil {
				_, err = cl.DecouplePolicy(p, c, path, &Policy{
					Consistency: modes[j], Durability: DurNone,
					AllocatedInodes: 2 * localOps, Interfere: InterfereAllow,
				})
			}
			if err != nil {
				t.Fatalf("set up %s: %v", path, err)
			}
		}
	})
	for i, c := range rpc {
		cl.Go(c.Name(), func(p Proc) {
			for k := 0; k < creates; k++ {
				if _, err := c.Create(p, dirs[i], fmt.Sprintf("f%03d", k), 0644); err != nil {
					t.Errorf("%s: create %d: %v", c.Name(), k, err)
					return
				}
			}
		})
	}
	for j, c := range dec {
		cl.Go(c.Name(), func(p Proc) {
			root, err := c.DecoupledRoot()
			for k := 0; err == nil && k < localOps; k++ {
				_, err = c.LocalCreate(p, root, fmt.Sprintf("l%03d", k), 0644)
			}
			if err == nil {
				var comp Composition
				if comp, err = CompileTableI(modes[j], DurNone); err == nil {
					err = c.RunComposition(p, comp)
				}
			}
			if err != nil {
				t.Errorf("%s: %v", c.Name(), err)
			}
		})
	}
	cl.Go(intf.Name(), func(p Proc) {
		p.Sleep(5 * time.Millisecond)
		d0, err := intf.Resolve(p, "/d0")
		for k := 0; err == nil && k < interferes; k++ {
			if _, err = intf.Create(p, dirs[0], fmt.Sprintf("i%03d", k), 0644); err == nil {
				_, err = intf.Create(p, d0, fmt.Sprintf("i%03d", k), 0644)
			}
		}
		if err != nil {
			t.Errorf("interferer: %v", err)
		}
	})
	cl.Go("migrator", func(p Proc) {
		// The freeze is refused while a merge is in flight on the
		// source; try again shortly.
		p.Sleep(10 * time.Millisecond)
		err := cl.Migrate(p, "/r1", 0)
		for try := 0; err != nil && try < 200; try++ {
			p.Sleep(time.Millisecond)
			err = cl.Migrate(p, "/r1", 0)
		}
		if err != nil {
			t.Errorf("migrate /r1: %v", err)
		}
	})
	virt := cl.RunAll()
	if err := cl.Runtime().LeakCheck(); err != nil {
		t.Fatal(err)
	}
	if heat && len(cl.HeatReport().Cells) == 0 {
		t.Fatal("heat accounting recorded nothing")
	}
	// The storm must take the paths heat records on: merges, an
	// interferer's cap revoke, and the exports of the two set-up
	// placements that move a subtree and of the migration.
	var merged, revokes, exports uint64
	for r := 0; r < cl.Metadata().Ranks(); r++ {
		m := cl.Metadata().Rank(r).Metrics()
		merged, revokes, exports = merged+m.Merged, revokes+m.CapRevokes, exports+m.Exports
	}
	if merged == 0 || revokes == 0 || exports != 3 {
		t.Fatalf("storm merged %d events, revoked %d caps and exported %d subtrees; want merges, revokes and 3 exports",
			merged, revokes, exports)
	}

	var image strings.Builder
	table := cl.Metadata().Table()
	for r := 0; r < cl.Metadata().Ranks(); r++ {
		err := cl.Metadata().Rank(r).Store().Walk(RootIno, func(path string, in *namespace.Inode) error {
			if table.RankFor(path) == r {
				fmt.Fprintf(&image, "%d %s ino=%d type=%d mode=%o size=%d mtime=%d\n",
					r, path, in.Ino, in.Type, in.Mode, in.Size, in.Mtime)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walk rank %d: %v", r, err)
		}
	}
	var metrics, trace strings.Builder
	if err := cl.CollectMetrics().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChrome(&trace); err != nil {
		t.Fatal(err)
	}
	return stormOutcome{virt, image.String(), metrics.String(), trace.String()}
}
