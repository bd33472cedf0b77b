package cudele_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cudele"
	"cudele/internal/client"
	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
)

// setupSpeculative decouples /job speculatively, journals five creates,
// and lets an interferer steal f2 through the strong RPC path so the
// client's prediction for it is guaranteed false at merge time.
func setupSpeculative(t *testing.T, p cudele.Proc, cl *cudele.Cluster,
	c, intr *cudele.Client, dur policy.Durability) {
	t.Helper()
	job, err := c.MkdirAll(p, "/job", 0755)
	if err != nil {
		t.Fatalf("mkdirall: %v", err)
	}
	if _, err := cl.DecouplePolicy(p, c, "/job", &cudele.Policy{
		Consistency: cudele.ConsSpeculative, Durability: dur,
		AllocatedInodes: 100, Interfere: cudele.InterfereAllow,
	}); err != nil {
		t.Fatalf("decouple: %v", err)
	}
	root, _ := c.DecoupledRoot()
	for i := 0; i < 5; i++ {
		if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
			t.Fatalf("local create f%d: %v", i, err)
		}
	}
	if _, err := intr.Create(p, job, "f2", 0600); err != nil {
		t.Fatalf("interfering create: %v", err)
	}
}

// TestSpeculativeRollbackCrashRecovery crashes the client in the middle
// of a rollback — after the MDS applied the accepted ops but before the
// rejected one was undone locally — and asserts DurLocal recovery does
// not resurrect it: the recovered journal re-enters the ordinary
// validate-or-reject cycle and the stale op is rejected and rolled back
// again instead of leaking.
func TestSpeculativeRollbackCrashRecovery(t *testing.T) {
	cl := cudele.NewCluster()
	c := cl.NewClient("c0")
	intr := cl.NewClient("intr")
	cl.Run(func(p cudele.Proc) {
		setupSpeculative(t, p, cl, c, intr, cudele.DurLocal)
		if err := c.LocalPersist(p); err != nil {
			t.Fatalf("local persist: %v", err)
		}
		// Crash mid-rollback: the hook kills the rollback after one undo,
		// leaving the journal and undo log un-reset.
		c.FailRollbackAfter(0)
		if _, _, err := c.SpeculativeApply(p); err == nil {
			t.Fatal("mid-rollback crash hook did not surface an error")
		}
		c.Crash(p)
		if err := c.Restart(p); err != nil {
			t.Fatalf("restart: %v", err)
		}
		n, err := c.RecoverLocal(p)
		if err != nil || n != 5 {
			t.Fatalf("recover = %d, %v; want 5", n, err)
		}
		// The recovered journal re-merges: every op now conflicts (the
		// accepted four already exist on the MDS, f2 belongs to the
		// interferer) and all five are rolled back from the local image.
		_, conflicts, err := c.SpeculativeApply(p)
		if err != nil {
			t.Fatalf("re-merge after recovery: %v", err)
		}
		if len(conflicts) != 5 {
			t.Fatalf("re-merge rejected %v, want all 5 recovered ops", conflicts)
		}
		root, _ := c.DecoupledRoot()
		for i := 0; i < 5; i++ {
			if _, err := c.LocalLookup(root, fmt.Sprintf("f%d", i)); err == nil {
				t.Errorf("rolled-back f%d still visible in the client image", i)
			}
		}
	})
	// The global namespace holds the four accepted ops and the
	// interferer's f2 — never the client's rejected twin.
	for i := 0; i < 5; i++ {
		in, err := cl.MDS().Store().Resolve(fmt.Sprintf("/job/f%d", i))
		if err != nil {
			t.Fatalf("accepted op /job/f%d missing after recovery: %v", i, err)
		}
		if i == 2 && in.UID != 0 && in.Mode&0777 != 0600 {
			t.Errorf("/job/f2 is not the interferer's file")
		}
	}
}

// TestSpeculativeTornUndoPersist tears the global persist of the undo
// object. The persist must fail (the ack is the durability point), a
// retry on a healed store must succeed, and rescue recovery needs only
// the journal image: the undo log is derivable, so a torn copy is
// irrelevant.
func TestSpeculativeTornUndoPersist(t *testing.T) {
	cl := cudele.NewCluster()
	c := cl.NewClient("c0")
	intr := cl.NewClient("intr")
	rescuer := cl.NewClient("rescue")
	cl.Run(func(p cudele.Proc) {
		setupSpeculative(t, p, cl, c, intr, cudele.DurGlobal)
		inj := rados.NewFaultInjector(7)
		inj.MaxFaults = 1
		inj.TornWriteProb = 1
		inj.Match = func(oid rados.ObjectID) bool {
			// The striper appends a ".%010d" stripe index to the logical
			// object name.
			return oid.Pool == client.ClientJournalPool &&
				strings.Contains(oid.Name, client.UndoObjectSuffix+".")
		}
		cl.Objects().SetFaults(inj)
		if err := c.GlobalPersist(p); !errors.Is(err, rados.ErrIO) {
			t.Fatalf("persist with a torn undo write = %v; want an injected I/O error", err)
		}
		if err := c.GlobalPersist(p); err != nil {
			t.Fatalf("persist retry: %v", err)
		}
		c.Crash(p) // stays down forever
		events, err := rescuer.FetchGlobalJournal(p, "c0")
		if err != nil || len(events) != 5 {
			t.Fatalf("fetch = %d events, %v; want 5", len(events), err)
		}
		applied, conflicts, err := cl.MDS().SpeculativeApply(p, events,
			int64(len(events))*int64(cl.Config().JournalEventBytes))
		if err != nil {
			t.Fatalf("rescue merge: %v", err)
		}
		if applied != 4 || len(conflicts) != 1 {
			t.Fatalf("rescue merge applied %d with conflicts %v; want 4 applied, f2 rejected",
				applied, conflicts)
		}
	})
	for _, name := range []string{"f0", "f1", "f3", "f4"} {
		if _, err := cl.MDS().Store().Resolve("/job/" + name); err != nil {
			t.Errorf("/job/%s missing after rescue: %v", name, err)
		}
	}
}

// TestSpeculativeMergeDuringMigration migrates the decoupled subtree
// between the client's journal writes and its merge: the merge hits the
// old owner, bounces with a wrong-rank redirect, and the client's
// refresh-and-retry loop lands the validated merge on the new owner.
func TestSpeculativeMergeDuringMigration(t *testing.T) {
	cl := cudele.NewCluster(cudele.WithMDSRanks(2))
	c := cl.NewClient("c0")
	cl.Run(func(p cudele.Proc) {
		if _, err := c.MkdirAll(p, "/job", 0755); err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
		if _, err := cl.DecouplePolicy(p, c, "/job", &cudele.Policy{
			Consistency: cudele.ConsSpeculative, Durability: cudele.DurNone,
			AllocatedInodes: 100,
		}); err != nil {
			t.Fatalf("decouple: %v", err)
		}
		root, _ := c.DecoupledRoot()
		for i := 0; i < 8; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
				t.Fatalf("local create: %v", err)
			}
		}
		// Freeze the client's routing view so the merge is guaranteed to
		// hit the old owner and bounce.
		cl.Monitor().Unsubscribe("c0")
		if err := cl.Migrate(p, "/job", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		applied, conflicts, err := c.SpeculativeApply(p)
		if err != nil {
			t.Fatalf("speculative apply across migration: %v", err)
		}
		if applied != 8 || len(conflicts) != 0 {
			t.Fatalf("applied %d with conflicts %v; want 8 clean", applied, conflicts)
		}
	})
	if got := c.Stats().Redirects; got == 0 {
		t.Error("merge after migration never bounced: the redirect path was not exercised")
	}
	store := cl.Metadata().Rank(1).Store()
	for i := 0; i < 8; i++ {
		if _, err := store.Resolve(fmt.Sprintf("/job/f%d", i)); err != nil {
			t.Errorf("/job/f%d missing on the new owner: %v", i, err)
		}
	}
}

// TestStrongEventualMergeOrderPermutations records three journal batches
// — including an unlink of an earlier batch's file — and replays them
// through the MDS resolver in every permutation on fresh clusters. Every
// order must render a byte-identical image, equal to the one the live
// recording cluster converged to.
func TestStrongEventualMergeOrderPermutations(t *testing.T) {
	type batchOps func(p cudele.Proc, c *cudele.Client, root cudele.Ino) error
	batchdefs := []batchOps{
		func(p cudele.Proc, c *cudele.Client, root cudele.Ino) error {
			for _, n := range []string{"a0", "a1"} {
				if _, err := c.LocalCreate(p, root, n, 0644); err != nil {
					return err
				}
			}
			_, err := c.LocalMkdir(p, root, "da", 0755)
			return err
		},
		func(p cudele.Proc, c *cudele.Client, root cudele.Ino) error {
			if err := c.LocalUnlink(p, root, "a0"); err != nil {
				return err
			}
			_, err := c.LocalCreate(p, root, "b0", 0644)
			return err
		},
		func(p cudele.Proc, c *cudele.Client, root cudele.Ino) error {
			if _, err := c.LocalCreate(p, root, "c0", 0644); err != nil {
				return err
			}
			_, err := c.LocalMkdir(p, root, "dc", 0755)
			return err
		},
	}

	// Recording pass: one strong-eventual client builds and merges the
	// batches in program order, capturing each batch's events.
	record := cudele.NewCluster(cudele.WithSeed(11))
	rc := record.NewClient("c0")
	var batches [][]*journal.Event
	record.Run(func(p cudele.Proc) {
		if _, err := rc.MkdirAll(p, "/job", 0755); err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
		if _, err := record.DecouplePolicy(p, rc, "/job", &cudele.Policy{
			Consistency: cudele.ConsStrongEventual, Durability: cudele.DurNone,
			AllocatedInodes: 100,
		}); err != nil {
			t.Fatalf("decouple: %v", err)
		}
		root, _ := rc.DecoupledRoot()
		for i, ops := range batchdefs {
			if err := ops(p, rc, root); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			evs, err := rc.JournalEvents()
			if err != nil {
				t.Fatalf("batch %d snapshot: %v", i, err)
			}
			batches = append(batches, evs)
			if _, err := rc.ConvergeApply(p); err != nil {
				t.Fatalf("batch %d merge: %v", i, err)
			}
		}
	})
	base := seImage(t, record, "/job")

	perms := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	for _, order := range perms {
		order := order
		t.Run(fmt.Sprintf("order%v", order), func(t *testing.T) {
			cl := cudele.NewCluster(cudele.WithSeed(11))
			c := cl.NewClient("c0")
			cl.Run(func(p cudele.Proc) {
				if _, err := c.MkdirAll(p, "/job", 0755); err != nil {
					t.Fatalf("mkdirall: %v", err)
				}
				if _, err := cl.DecouplePolicy(p, c, "/job", &cudele.Policy{
					Consistency: cudele.ConsStrongEventual, Durability: cudele.DurNone,
					AllocatedInodes: 100,
				}); err != nil {
					t.Fatalf("decouple: %v", err)
				}
				for _, bi := range order {
					evs := batches[bi]
					applied, err := cl.MDS().ConvergeApply(p, evs,
						int64(len(evs))*int64(cl.Config().JournalEventBytes))
					if err != nil {
						t.Fatalf("merge batch %d: %v", bi, err)
					}
					if applied != len(evs) {
						t.Fatalf("batch %d applied %d of %d events", bi, applied, len(evs))
					}
				}
			})
			if img := seImage(t, cl, "/job"); img != base {
				t.Errorf("merge order %v renders a different image:\n%s\nwant:\n%s",
					order, img, base)
			}
		})
	}
}

// seImage renders the converged image of the subtree at path on the
// cluster's rank-0 store.
func seImage(t *testing.T, cl *cudele.Cluster, path string) string {
	t.Helper()
	in, err := cl.MDS().Store().Resolve(path)
	if err != nil {
		t.Fatalf("resolve %s: %v", path, err)
	}
	img, err := namespace.SEImageOf(cl.MDS().Store(), in.Ino)
	if err != nil {
		t.Fatalf("render %s: %v", path, err)
	}
	return img
}
