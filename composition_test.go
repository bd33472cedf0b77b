package cudele

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
)

// countVisible is how many of /job/f0../job/f<n-1> the rank's namespace
// resolves.
func countVisible(cl *Cluster, n int) int {
	seen := 0
	for i := 0; i < n; i++ {
		if _, err := cl.MDS().Store().Resolve(fmt.Sprintf("/job/f%d", i)); err == nil {
			seen++
		}
	}
	return seen
}

// TestRegisteredStreamJournalsFromTheFirstRPC: a subtree registered as
// rpcs + stream journals its RPC updates as they are served, with no
// cluster switch set anywhere, so a flushed journal brings every create
// back after a rank crash.
func TestRegisteredStreamJournalsFromTheFirstRPC(t *testing.T) {
	const n = 10
	cl := NewCluster()
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		dir, _ := c.MkdirAll(p, "/job", 0755)
		if err := cl.MDS().SaveStore(p); err != nil {
			t.Fatalf("save store: %v", err)
		}
		e, err := cl.Decouple(p, c, "/job", "consistency: rpcs\ndurability: stream\n")
		if err != nil {
			t.Fatalf("decouple: %v", err)
		}
		if e.Policy.Consistency != ConsStrong || e.Policy.Durability != DurGlobal {
			t.Fatalf("registered %v/%v, want strong/global", e.Policy.Consistency, e.Policy.Durability)
		}
		for i := 0; i < n; i++ {
			if _, err := c.Create(p, dir, fmt.Sprintf("f%d", i), 0644); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		comp, _ := e.Policy.Composition()
		if err := c.RunComposition(p, comp); err != nil {
			t.Fatalf("run composition: %v", err)
		}
		cl.MDS().FlushJournal(p)
		if got := cl.MDS().Metrics().Journaled; got != n {
			t.Errorf("journaled %d events, want %d", got, n)
		}
		cl.MDS().Crash(p)
		if err := cl.Monitor().Restart(p, 0); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if got := countVisible(cl, n); got != n {
			t.Errorf("%d of %d creates survive the rank crash", got, n)
		}
	})
}

// TestStreamSurvivesAnotherClientsComposition: client A's rpcs + stream
// creates stay journaled after client B completes a weak/local job, whose
// composition has no Stream. (A runs its own composition first, the way a
// client once turned a cluster-wide Stream switch on.)
func TestStreamSurvivesAnotherClientsComposition(t *testing.T) {
	cl := NewCluster()
	a, b := cl.NewClient("a"), cl.NewClient("b")
	cl.Run(func(p Proc) {
		dirA, _ := a.MkdirAll(p, "/a", 0755)
		b.MkdirAll(p, "/b", 0755)
		ea, err := cl.Decouple(p, a, "/a", "consistency: rpcs\ndurability: stream\n")
		if err != nil {
			t.Fatalf("decouple /a: %v", err)
		}
		compA, _ := ea.Policy.Composition()
		if err := a.RunComposition(p, compA); err != nil {
			t.Fatalf("a's composition: %v", err)
		}
		eb, err := cl.Decouple(p, b, "/b", "consistency: weak\ndurability: local\n")
		if err != nil {
			t.Fatalf("decouple /b: %v", err)
		}
		creates := func(from int) {
			for i := from; i < from+5; i++ {
				if _, err := a.Create(p, dirA, fmt.Sprintf("f%d", i), 0644); err != nil {
					t.Fatalf("create: %v", err)
				}
			}
		}
		creates(0)
		root, _ := b.DecoupledRoot()
		b.LocalCreate(p, root, "out", 0644)
		comp, _ := eb.Policy.Composition()
		if got := comp.String(); got != "append_client_journal+local_persist+volatile_apply" {
			t.Fatalf("b's composition = %q", got)
		}
		if err := b.RunComposition(p, comp); err != nil {
			t.Fatalf("b's composition: %v", err)
		}
		creates(5)
		if got := cl.MDS().Metrics().Journaled; got != 10 {
			t.Errorf("journaled %d of a's 10 creates", got)
		}
	})
}

// TestGlobalPersistBesideRPCsRefused: RPCs keep no client journal, so a
// global persist of one is refused at registration.
func TestGlobalPersistBesideRPCsRefused(t *testing.T) {
	cl := NewCluster()
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		c.MkdirAll(p, "/job", 0755)
		_, err := cl.Decouple(p, c, "/job", "consistency: rpcs\ndurability: global_persist\n")
		if !errors.Is(err, policy.ErrSenseless) {
			t.Fatalf("decouple = %v, want ErrSenseless", err)
		}
		if _, ok := cl.Monitor().Lookup("/job"); ok {
			t.Fatal("a refused policy was registered")
		}
	})
}

// acceptedSets is one order of every mechanism set ValidateComposition
// accepts: what acts per operation, then the persists, then the merge.
func acceptedSets() []Composition {
	var out []Composition
	for set := 1; set < 1<<9; set++ {
		var ms []policy.Mechanism
		for m := policy.MechRPCs; m <= policy.MechConvergeApply; m++ {
			if set&(1<<(m-1)) != 0 {
				ms = append(ms, m)
			}
		}
		rank := func(m policy.Mechanism) int {
			merges, _, atCompletion := m.Completion()
			switch {
			case !atCompletion:
				return 0
			case !merges:
				return 1
			}
			return 2
		}
		slices.SortStableFunc(ms, func(x, y policy.Mechanism) int { return rank(x) - rank(y) })
		comp := make(Composition, len(ms))
		for i, m := range ms {
			comp[i] = policy.Step{Parallel: []policy.Mechanism{m}}
		}
		if policy.ValidateComposition(comp) == nil {
			out = append(out, comp)
		}
	}
	return out
}

// TestEveryAcceptedMechanismSetRuns registers every mechanism set the
// policy table accepts, in one order, as a subtree's composition; runs its
// workload (RPCs or local operations) and the composition; then crashes
// the client and the rank in turn. Visibility is held to the cell the
// composition implements and what survives to the durability it names:
// local survives the client's crash, global both, and none neither.
// Strong/local (rpcs + local_persist) is strong/none against the rank
// crash: its updates live at the MDS, and nothing persists them.
func TestEveryAcceptedMechanismSetRuns(t *testing.T) {
	const n = 10
	sets := acceptedSets()
	if len(sets) != 23 {
		t.Fatalf("%d accepted mechanism sets, want 23", len(sets))
	}
	for _, comp := range sets {
		t.Run(comp.String(), func(t *testing.T) {
			cl := NewCluster()
			c, rescuer := cl.NewClient("c0"), cl.NewClient("rescue")
			cl.Run(func(p Proc) {
				dir, _ := c.MkdirAll(p, "/job", 0755)
				if err := cl.MDS().SaveStore(p); err != nil {
					t.Fatalf("save store: %v", err)
				}
				e, err := cl.Decouple(p, c, "/job", "consistency: "+comp.String()+"\n")
				if err != nil {
					t.Fatalf("decouple: %v", err)
				}
				cell, dur := e.Policy.Consistency, e.Policy.Durability
				root, _ := c.DecoupledRoot()
				for i := 0; i < n; i++ {
					name := fmt.Sprintf("f%d", i)
					if comp.Contains(policy.MechRPCs) {
						_, err = c.Create(p, dir, name, 0644)
					} else {
						_, err = c.LocalCreate(p, root, name, 0644)
					}
					if err != nil {
						t.Fatalf("create %s: %v", name, err)
					}
				}
				all := func(yes bool) int {
					if yes {
						return n
					}
					return 0
				}
				if got, want := countVisible(cl, n), all(cell == ConsStrong); got != want {
					t.Errorf("%v: %d updates visible before completion, want %d", cell, got, want)
				}
				if err := c.RunComposition(p, comp); err != nil {
					t.Fatalf("run composition: %v", err)
				}
				// Nonvolatile Apply merges into the object store, which
				// the live rank reads only when it restarts (below).
				merged := cell != ConsInvisible && !comp.Contains(policy.MechNonvolatileApply)
				if got, want := countVisible(cl, n), all(merged); got != want {
					t.Errorf("%v: %d updates visible after completion, want %d", cell, got, want)
				}
				cl.MDS().FlushJournal(p)

				// survivors is what any node can still recover: the
				// rank's namespace, the directory's object, the client's
				// local journal file, or the journal in the object store.
				survivors := func() int {
					best := countVisible(cl, n)
					if data, err := cl.Objects().Read(p, rados.ObjectID{Pool: namespace.ObjectPool,
						Name: namespace.DirObjectName(dir)}); err == nil {
						if obj, err := namespace.DecodeDir(data); err == nil {
							best = max(best, len(obj.Entries))
						}
					}
					if k, err := c.RecoverLocal(p); err == nil {
						best = max(best, k)
					}
					if evs, err := rescuer.FetchGlobalJournal(p, "c0"); err == nil {
						best = max(best, len(evs))
					}
					return best
				}
				c.Crash(p)
				if err := c.Restart(p); err != nil {
					t.Fatalf("client restart: %v", err)
				}
				if got := survivors(); dur >= DurLocal && got != n {
					t.Errorf("%v durability: %d of %d updates survive a client crash", dur, got, n)
				}
				cl.MDS().Crash(p)
				if err := cl.Monitor().Restart(p, 0); err != nil {
					t.Fatalf("rank restart: %v", err)
				}
				got := survivors()
				switch {
				case dur == DurGlobal && got != n:
					t.Errorf("global durability: %d of %d updates survive both crashes", got, n)
				case dur == DurNone && got != 0:
					t.Errorf("no durability, yet %d updates survive both crashes", got)
				}
				if comp.Contains(policy.MechNonvolatileApply) && countVisible(cl, n) != n {
					t.Errorf("nonvolatile apply: %d of %d updates in the restarted rank's namespace", countVisible(cl, n), n)
				}
			})
		})
	}
}
