package chaos

import (
	"slices"
	"strings"
	"testing"

	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
)

// plant is one deliberately broken invariant: which finished schedules
// it can be planted into, and the perturbation itself.
type plant struct {
	cons  policy.Consistency
	ready func(d *driver) bool // nil: any passing schedule of the cell
	plant func(t *testing.T, d *driver)
}

// finish runs a schedule to completion but keeps its engine alive, so a
// plant can still run tasks against the cluster.
func finish(t *testing.T, seed int64) *driver {
	d := newDriver(NewPlan(seed))
	d.cl.Go("chaos.main", d.main)
	d.cl.RunAll()
	t.Cleanup(func() { d.cl.Engine().Shutdown() })
	return d
}

// inTask runs fn as a task of the finished schedule's cluster.
func (d *driver) inTask(fn func(p runtime.Task)) {
	d.cl.Go("chaos.plant", fn)
	d.cl.RunAll()
}

// reporting calls every contract the schedule's cell carries and returns
// the names of those that recorded a violation.
func reporting(d *driver) []string {
	var names []string
	for i := range contracts {
		k := &contracts[i]
		if !k.applies(d.cell, d.plan) {
			continue
		}
		d.res.Violations = nil
		k.check(d)
		if len(d.res.Violations) > 0 {
			names = append(names, k.name)
		}
	}
	d.res.Violations = nil
	return names
}

// visibleFile returns a merged file of the main subtree.
func visibleFile(d *driver) (update, bool) {
	for _, path := range sortedKeys(d.o.mdsMem) {
		if u := d.o.mdsMem[path]; !u.dir {
			return u, true
		}
	}
	return update{}, false
}

// keptCreate finds a captured create whose file no captured unlink
// removes: dropping it must change the replayed image.
func keptCreate(d *driver) (batch, index int, ok bool) {
	unlinked := map[string]bool{}
	for _, evs := range d.batches {
		for _, ev := range evs {
			if ev.Type == journal.EvUnlink {
				unlinked[ev.Name] = true
			}
		}
	}
	for bi, evs := range d.batches {
		for ei, ev := range evs {
			if ev.Type == journal.EvCreate && !unlinked[ev.Name] {
				return bi, ei, true
			}
		}
	}
	return 0, 0, false
}

// rootRollback returns a rolled-back op of the last merge that sat
// directly under the subtree root (so its parent still exists locally).
func rootRollback(d *driver) (update, bool) {
	for _, i := range d.rolledBack {
		if u := d.merged[i]; u.parent == uint64(d.parents[0].ino) {
			return u, true
		}
	}
	return update{}, false
}

func mainRoot(t *testing.T, d *driver) namespace.Ino {
	in, err := d.mds().Store().Resolve(mainPath)
	if err != nil {
		t.Fatal(err)
	}
	return in.Ino
}

var plants = map[string]plant{
	"visible": {
		cons:  policy.ConsWeak,
		ready: func(d *driver) bool { _, ok := visibleFile(d); return ok },
		plant: func(t *testing.T, d *driver) {
			u, _ := visibleFile(d)
			if err := d.mds().Store().Unlink(namespace.Ino(u.parent), u.name); err != nil {
				t.Fatal(err)
			}
		},
	},
	"invisible": {
		cons: policy.ConsInvisible,
		plant: func(t *testing.T, d *driver) {
			// An acked, journaled, never-merged create shows up globally.
			reg, root := d.regs[0], mainRoot(t, d)
			u := update{path: mainPath + "/planted", ino: uint64(reg.lo) + reg.n - 1,
				parent: uint64(root), name: "planted", granted: true}
			d.o.ackJournal(u, false)
			_, err := d.mds().Store().Create(root, u.name, namespace.CreateAttrs{Ino: namespace.Ino(u.ino)})
			if err != nil {
				t.Fatal(err)
			}
		},
	},
	"phantom-walk": {
		cons: policy.ConsWeak,
		plant: func(t *testing.T, d *driver) {
			if _, err := d.mds().Store().Create(mainRoot(t, d), "planted", namespace.CreateAttrs{}); err != nil {
				t.Fatal(err)
			}
		},
	},
	"grant-range": {
		cons: policy.ConsWeak,
		plant: func(t *testing.T, d *driver) {
			// An acked update (since lost with its client) whose inode was
			// never part of the registration's grant.
			reg, path := d.regs[0], mainPath+"/lost"
			d.o.pset[path] = update{path: path, ino: uint64(reg.lo) + reg.n, granted: true}
		},
	},
	"no-duplicate-inode": {
		cons:  policy.ConsWeak,
		ready: func(d *driver) bool { return len(d.seenIno) > 0 },
		plant: func(t *testing.T, d *driver) {
			for ino := range d.seenIno {
				d.ackIno(ino, mainPath+"/twin")
				return
			}
		},
	},
	"exact-rollback": {
		cons: policy.ConsSpeculative,
		// The client image must still be the one the last merge left: no
		// crash since.
		ready: func(d *driver) bool {
			_, ok := rootRollback(d)
			return ok && !slices.Contains(reporting(d), "exact-rollback")
		},
		plant: func(t *testing.T, d *driver) {
			u, _ := rootRollback(d)
			d.inTask(func(p runtime.Task) {
				if _, err := d.c.LocalCreate(p, namespace.Ino(u.parent), u.name, 0o644); err != nil {
					t.Errorf("re-insert %s: %v", u.path, err)
				}
			})
		},
	},
	"permutation-convergence": {
		cons: policy.ConsStrongEventual,
		ready: func(d *driver) bool {
			_, _, ok := keptCreate(d)
			return ok && !d.mdsCrashed && !d.noLiveCompare
		},
		plant: func(t *testing.T, d *driver) {
			bi, ei, _ := keptCreate(d)
			d.batches[bi] = slices.Delete(slices.Clone(d.batches[bi]), ei, ei+1)
		},
	},
	"background": {
		cons:  policy.ConsWeak,
		ready: func(d *driver) bool { return len(d.bgSet) > 0 && !d.mdsCrashed },
		plant: func(t *testing.T, d *driver) {
			path := sortedKeys(d.bgSet)[0]
			root, err := d.srv.Store().Resolve(bgPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.srv.Store().Unlink(root.Ino, strings.TrimPrefix(path, bgPath+"/")); err != nil {
				t.Fatal(err)
			}
		},
	},
	"store-check": {
		cons:  policy.ConsWeak,
		ready: func(d *driver) bool { _, ok := visibleFile(d); return ok },
		plant: func(t *testing.T, d *driver) {
			u, _ := visibleFile(d)
			in, err := d.mds().Store().Resolve(u.path)
			if err != nil {
				t.Fatal(err)
			}
			in.Name = "not-" + u.name // the dentry keeps the old name
		},
	},
	"merge-queue-drained": {
		cons:  policy.ConsWeak,
		ready: func(d *driver) bool { return !d.plan.Migrate },
		plant: func(t *testing.T, d *driver) {
			// An admitted streamed merge that never sends a chunk.
			d.inTask(func(p runtime.Task) {
				r := d.srv.Post(p, &mds.MergeOpenMsg{Client: "plant", Route: mainPath, TotalEvents: 1})
				if err := r.(*mds.StreamOpenReply).Err; err != nil {
					t.Errorf("merge open: %v", err)
				}
			})
		},
	},
}

// TestOracleCatchesPlantedViolations shows the oracle is not vacuous:
// for every contract in the list, a passing schedule is run to
// completion, one invariant is broken by hand, and exactly that contract
// — no other — must report. A contract without a plant fails the test.
func TestOracleCatchesPlantedViolations(t *testing.T) {
	for i := range contracts {
		k := &contracts[i]
		t.Run(k.name, func(t *testing.T) {
			pl, ok := plants[k.name]
			if !ok {
				t.Fatalf("contract %q has no planted violation", k.name)
			}
			var d *driver
			for seed := int64(1); d == nil; seed++ {
				if seed > 2000 {
					t.Fatalf("no schedule in 2000 seeds can take the %s plant", k.name)
				}
				plan := NewPlan(seed)
				if plan.Cons != pl.cons || !k.applies(&cells[plan.Cons], plan) {
					continue
				}
				if c := finish(t, seed); c.res.Passed() && (pl.ready == nil || pl.ready(c)) {
					d = c
				}
			}
			if got := reporting(d); len(got) != 0 {
				t.Fatalf("seed %d: contracts %v report before the plant", d.plan.Seed, got)
			}
			pl.plant(t, d)
			if got := reporting(d); !slices.Equal(got, []string{k.name}) {
				t.Fatalf("seed %d: after planting a %s violation, contracts %v report", d.plan.Seed, k.name, got)
			}
		})
	}
}
