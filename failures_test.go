package cudele_test

import (
	"errors"
	"fmt"
	"testing"

	"cudele"
	"cudele/internal/client"
	"cudele/internal/policy"
	"cudele/internal/rados"
)

// TestFailureMatrix exercises every cell of the paper's consistency x
// durability matrix (Table I) under three failure scenarios, asserting
// the contract each policy makes:
//
//	DurNone    may lose everything on any failure; nothing may leak
//	DurLocal   acked local persists survive a client crash + restart
//	DurGlobal  acked global persists (or journal flushes) survive any crash
//	ConsInvisible / ConsWeak   updates never visible before a merge
//	ConsStrong                 acked updates visible immediately
//
// The randomized version of this matrix — with torn writes, transport
// faults, and crash schedules — lives in internal/chaos; these are the
// deterministic, human-readable anchors.
func TestFailureMatrix(t *testing.T) {
	consistencies := []policy.Consistency{
		cudele.ConsInvisible, cudele.ConsWeak, cudele.ConsStrong,
	}
	durabilities := []policy.Durability{
		cudele.DurNone, cudele.DurLocal, cudele.DurGlobal,
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, cons policy.Consistency, dur policy.Durability)
	}{
		{"client-crash", matrixClientCrash},
		{"mds-crash", matrixMDSCrash},
		{"crash-during-global-persist", matrixCrashDuringGlobalPersist},
	}
	for _, cons := range consistencies {
		for _, dur := range durabilities {
			for _, sc := range scenarios {
				sc := sc
				cons, dur := cons, dur
				t.Run(fmt.Sprintf("%v-%v/%s", cons, dur, sc.name), func(t *testing.T) {
					sc.run(t, cons, dur)
				})
			}
		}
	}
}

const matrixFiles = 20

// setupDecoupled builds a cluster with /job decoupled under the given
// policy, 20 files created into the client journal, and asserts the
// consistency half of the contract: nothing is visible before a merge.
func setupDecoupled(t *testing.T, p cudele.Proc, cl *cudele.Cluster, c *cudele.Client,
	cons policy.Consistency, dur policy.Durability) {
	t.Helper()
	if _, err := c.MkdirAll(p, "/job", 0755); err != nil {
		t.Fatalf("mkdir /job: %v", err)
	}
	if err := cl.MDS().SaveStore(p); err != nil {
		t.Fatalf("save store: %v", err)
	}
	pol := &cudele.Policy{Consistency: cons, Durability: dur, AllocatedInodes: 100}
	if _, err := cl.DecouplePolicy(p, c, "/job", pol); err != nil {
		t.Fatalf("decouple: %v", err)
	}
	root, _ := c.DecoupledRoot()
	for i := 0; i < matrixFiles; i++ {
		if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
			t.Fatalf("local create f%d: %v", i, err)
		}
	}
	if _, err := cl.MDS().Store().Resolve("/job/f0"); err == nil {
		t.Fatal("decoupled update visible before merge")
	}
}

// assertAllVisible checks every created file resolves in the MDS store.
func assertAllVisible(t *testing.T, cl *cudele.Cluster, why string) {
	t.Helper()
	for i := 0; i < matrixFiles; i++ {
		if _, err := cl.MDS().Store().Resolve(fmt.Sprintf("/job/f%d", i)); err != nil {
			t.Fatalf("f%d lost %s: %v", i, why, err)
		}
	}
}

// matrixClientCrash: the client node crashes after its acks. What
// survives is exactly what the durability level promised.
func matrixClientCrash(t *testing.T, cons policy.Consistency, dur policy.Durability) {
	cl := cudele.NewCluster()
	c := cl.NewClient("c0")
	if cons == cudele.ConsStrong {
		// Strong updates are at the MDS when acked: a client crash
		// loses nothing regardless of durability level.
		cl.Run(func(p cudele.Proc) {
			dir, _ := c.MkdirAll(p, "/job", 0755)
			for i := 0; i < matrixFiles; i++ {
				if _, err := c.Create(p, dir, fmt.Sprintf("f%d", i), 0644); err != nil {
					t.Fatalf("create f%d: %v", i, err)
				}
			}
			assertAllVisible(t, cl, "before the crash (strong = immediately visible)")
			c.Crash(p)
			if err := c.Restart(p); err != nil {
				t.Fatalf("restart: %v", err)
			}
			assertAllVisible(t, cl, "after a client crash")
		})
		return
	}
	rescuer := cl.NewClient("rescue")
	cl.Run(func(p cudele.Proc) {
		setupDecoupled(t, p, cl, c, cons, dur)
		switch dur {
		case cudele.DurNone:
			// Never persisted: the crash destroys the journal, recovery
			// has nothing to load, and nothing may have leaked.
			c.Crash(p)
			if err := c.Restart(p); err != nil {
				t.Fatalf("restart: %v", err)
			}
			if _, err := c.RecoverLocal(p); err == nil {
				t.Error("recovered a journal that was never persisted")
			}
			if _, err := cl.MDS().Store().Resolve("/job/f0"); err == nil {
				t.Error("lost updates leaked into the global namespace")
			}
		case cudele.DurLocal:
			// Acked local persist: the node's disk survives its crash,
			// so recover + merge restores everything.
			if err := c.LocalPersist(p); err != nil {
				t.Fatalf("local persist: %v", err)
			}
			c.Crash(p)
			if err := c.Restart(p); err != nil {
				t.Fatalf("restart: %v", err)
			}
			n, err := c.RecoverLocal(p)
			if err != nil || n != matrixFiles {
				t.Fatalf("recover = %d, %v; want %d", n, err, matrixFiles)
			}
			if _, _, err := c.Merge(p); err != nil {
				t.Fatalf("merge after recovery: %v", err)
			}
			assertAllVisible(t, cl, "despite local durability")
		case cudele.DurGlobal:
			// Acked global persist: even a client that never comes back
			// loses nothing — any node can fetch and merge.
			if err := c.GlobalPersist(p); err != nil {
				t.Fatalf("global persist: %v", err)
			}
			c.Crash(p) // stays down forever
			events, err := rescuer.FetchGlobalJournal(p, "c0")
			if err != nil || len(events) != matrixFiles {
				t.Fatalf("fetch = %d events, %v; want %d", len(events), err, matrixFiles)
			}
			if _, err := cl.MDS().VolatileApply(p, events, int64(len(events))*2500); err != nil {
				t.Fatalf("rescue merge: %v", err)
			}
			assertAllVisible(t, cl, "despite global durability")
		}
	})
}

// matrixMDSCrash: the metadata server crashes and restarts.
func matrixMDSCrash(t *testing.T, cons policy.Consistency, dur policy.Durability) {
	cl := cudele.NewCluster()
	if cons == cudele.ConsStrong && dur == cudele.DurGlobal {
		// Strong + global = RPCs + Stream (Table I): journaled updates
		// survive the MDS crash once flushed.
		cl.MDS().SetStream(true)
	}
	c := cl.NewClient("c0")
	if cons == cudele.ConsStrong {
		cl.Run(func(p cudele.Proc) {
			dir, _ := c.MkdirAll(p, "/job", 0755)
			if err := cl.MDS().SaveStore(p); err != nil {
				t.Fatalf("save store: %v", err)
			}
			for i := 0; i < matrixFiles; i++ {
				if _, err := c.Create(p, dir, fmt.Sprintf("f%d", i), 0644); err != nil {
					t.Fatalf("create f%d: %v", i, err)
				}
			}
			if dur == cudele.DurGlobal {
				cl.MDS().FlushJournal(p)
			}
			cl.MDS().Crash(p)
			if err := cl.Monitor().Restart(p, 0); err != nil {
				t.Fatalf("mds restart: %v", err)
			}
			c.Unmount(p)
			c.Mount(p)
			if dur == cudele.DurGlobal {
				assertAllVisible(t, cl, "after an MDS crash despite a journal flush")
			} else {
				// Without the stream, updates past the last store flush
				// are volatile MDS state: the crash loses them.
				if _, err := cl.MDS().Store().Resolve("/job"); err != nil {
					t.Fatalf("saved directory lost: %v", err)
				}
				if _, err := cl.MDS().Store().Resolve("/job/f0"); err == nil {
					t.Error("unflushed strong update survived an MDS crash without a journal")
				}
			}
		})
		return
	}
	cl.Run(func(p cudele.Proc) {
		setupDecoupled(t, p, cl, c, cons, dur)
		// The unmerged journal lives on the client, so an MDS crash
		// cannot touch it — at any durability level. The monitor hands
		// the restarting MDS the registration with the grant the client
		// holds, so the merge lands. (A fresh Decouple would be handed a
		// range never issued before: see TestGrantNeverReissued.)
		cl.MDS().Crash(p)
		if err := cl.Monitor().Restart(p, 0); err != nil {
			t.Fatalf("mds restart: %v", err)
		}
		c.Unmount(p)
		c.Mount(p)
		n, _, err := c.Merge(p)
		if err != nil || n != matrixFiles {
			t.Fatalf("merge after MDS recovery = %d, %v; want %d", n, err, matrixFiles)
		}
		assertAllVisible(t, cl, "after an MDS crash (journal was client-held)")
	})
}

// matrixCrashDuringGlobalPersist: the object store fails (cleanly, then
// torn) in the middle of a Global Persist. The failed persist must
// surface an error — the ack is the durability point — and a retry on a
// fault-free store completes the contract.
func matrixCrashDuringGlobalPersist(t *testing.T, cons policy.Consistency, dur policy.Durability) {
	if dur != cudele.DurGlobal {
		t.Skipf("global persist is not part of the %v composition", dur)
	}
	if cons == cudele.ConsStrong {
		t.Skip("strong cells persist via the MDS journal stream, not Global Persist")
	}
	for _, mode := range []struct {
		name string
		arm  func(inj *rados.FaultInjector)
	}{
		{"clean-error", func(inj *rados.FaultInjector) { inj.WriteErrorProb = 1 }},
		{"torn-write", func(inj *rados.FaultInjector) { inj.TornWriteProb = 1 }},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			cl := cudele.NewCluster()
			c := cl.NewClient("c0")
			rescuer := cl.NewClient("rescue")
			cl.Run(func(p cudele.Proc) {
				setupDecoupled(t, p, cl, c, cons, dur)
				inj := rados.NewFaultInjector(7)
				inj.MaxFaults = 1
				inj.Match = func(oid rados.ObjectID) bool {
					return oid.Pool == client.ClientJournalPool
				}
				mode.arm(inj)
				cl.Objects().SetFaults(inj)
				err := c.GlobalPersist(p)
				if !errors.Is(err, rados.ErrIO) {
					t.Fatalf("persist into a failing store = %v; want an injected I/O error", err)
				}
				// No ack, no durability claim — but a retry once the
				// store heals (MaxFaults exhausted) must succeed and
				// fully overwrite any torn leftovers.
				if err := c.GlobalPersist(p); err != nil {
					t.Fatalf("persist retry: %v", err)
				}
				c.Crash(p) // stays down forever
				events, err := rescuer.FetchGlobalJournal(p, "c0")
				if err != nil || len(events) != matrixFiles {
					t.Fatalf("fetch = %d events, %v; want %d", len(events), err, matrixFiles)
				}
				if _, err := cl.MDS().VolatileApply(p, events, int64(len(events))*2500); err != nil {
					t.Fatalf("rescue merge: %v", err)
				}
				assertAllVisible(t, cl, "despite a failed persist attempt")
			})
		})
	}
}

func TestInterfererCannotDestroyDecoupledResults(t *testing.T) {
	// interfere: allow lets an interferer write, but at merge time the
	// decoupled namespace's results take priority (paper §III-C).
	cl := cudele.NewCluster()
	owner := cl.NewClient("owner")
	intr := cl.NewClient("intr")
	cl.Run(func(p cudele.Proc) {
		owner.MkdirAll(p, "/exp", 0755)
		cl.DecouplePolicy(p, owner, "/exp", &cudele.Policy{
			Consistency: cudele.ConsWeak, Durability: cudele.DurNone,
			AllocatedInodes: 100, Interfere: cudele.InterfereAllow,
		})
		root, _ := owner.DecoupledRoot()
		owner.LocalCreate(p, root, "result", 0600)
		// The interferer writes the same name with different attrs.
		if _, err := intr.Create(p, root, "result", 0444); err != nil {
			t.Fatalf("interferer create: %v", err)
		}
		if _, _, err := owner.Merge(p); err != nil {
			t.Fatalf("merge: %v", err)
		}
		in, err := cl.MDS().Store().Resolve("/exp/result")
		if err != nil {
			t.Fatalf("result missing: %v", err)
		}
		if in.Mode != 0600 {
			t.Fatalf("merge did not take priority: mode %o", in.Mode)
		}
	})
}
