package cudele

import (
	"fmt"
	"testing"
	"time"

	"cudele/internal/namespace"
	"cudele/internal/policy"
)

// concurrentMergeRun drives two decoupled clients that Volatile Apply
// against the same rank at the same instant through the streamed merge
// pipeline, and reports the run's observable outcome.
func concurrentMergeRun(t *testing.T, filesA, filesB int) (elapsed float64, spread time.Duration, jobs int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MergeChunkEvents = 64
	cfg.MergeAdmitMax = 2
	// Shrink the flat per-job merge setup (100 ms of CPU at calibration)
	// so the measured chunk waits reflect the scheduler's interleaving,
	// not the competitor's one-time admission cost landing mid-stream.
	cfg.MDSMergeSetup = time.Millisecond
	cl := NewCluster(WithConfig(cfg), WithSeed(7))
	a := cl.NewClient("client.a")
	b := cl.NewClient("client.b")

	cl.Run(func(p Proc) {
		for _, setup := range []struct {
			c    *Client
			path string
		}{{a, "/ja"}, {b, "/jb"}} {
			if _, err := setup.c.MkdirAll(p, setup.path, 0755); err != nil {
				t.Errorf("mkdirall %s: %v", setup.path, err)
				return
			}
			if _, err := cl.Decouple(p, setup.c, setup.path,
				"consistency: weak\ndurability: none\nallocated_inodes: 10000\n"); err != nil {
				t.Errorf("decouple %s: %v", setup.path, err)
				return
			}
		}
	})

	merge := func(c *Client, files int) func(p Proc) {
		return func(p Proc) {
			root, _ := c.DecoupledRoot()
			for i := 0; i < files; i++ {
				if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
					t.Errorf("%s create %d: %v", c.Name(), i, err)
					return
				}
			}
			if n, _, err := c.Merge(p); err != nil || n != files {
				t.Errorf("%s apply = %d, %v; want %d", c.Name(), n, err, files)
			}
		}
	}
	cl.Go("merge.a", merge(a, filesA))
	cl.Go("merge.b", merge(b, filesB))
	elapsed = cl.RunAll()

	// Both journals merged into one correct global namespace.
	for _, name := range []string{
		fmt.Sprintf("/ja/f%d", filesA-1),
		fmt.Sprintf("/jb/f%d", filesB-1),
	} {
		if _, err := cl.MDS().Store().Resolve(name); err != nil {
			t.Errorf("%s missing after concurrent merge: %v", name, err)
		}
	}
	spread, jobs = cl.MDS().MergeFairness()
	return elapsed, time.Duration(spread), jobs
}

func TestConcurrentChunkedMergesAreFairAndDeterministic(t *testing.T) {
	const filesA, filesB = 200, 320
	elapsed, spread, jobs := concurrentMergeRun(t, filesA, filesB)
	if jobs != 2 {
		t.Fatalf("streamed merge jobs = %d, want 2", jobs)
	}
	// Fairness: round-robin chunk interleaving keeps the two jobs'
	// buffering delays close even though one journal is 60% larger. A
	// run-to-completion schedule would make the loser's chunks wait for
	// the whole winning journal (~16 ms of congested apply time at the
	// calibrated 82 us/event); the scheduler bounds the spread to about
	// one chunk's service time.
	if limit := 12 * time.Millisecond; spread > limit {
		t.Errorf("chunk-wait spread = %v, want <= %v", spread, limit)
	}

	// Determinism: an identical cluster replays the identical schedule.
	elapsed2, spread2, jobs2 := concurrentMergeRun(t, filesA, filesB)
	if elapsed2 != elapsed || spread2 != spread || jobs2 != jobs {
		t.Fatalf("replay diverged: elapsed %v vs %v, spread %v vs %v, jobs %d vs %d",
			elapsed2, elapsed, spread2, spread, jobs2, jobs)
	}
}

// TestMergeFollowsRegisteredCell: Client.Merge merges in the cell the
// subtree was registered in. Each case builds two clusters with the same
// decoupled journal — four local creates, two of them of names an RPC
// interferer took after the client journaled them, f1 with a file and f2
// with a directory — and merges it with Merge on one and through the
// cell's Server apply wrapper on the twin. The collisions tell the three
// merge steps apart: a blind merge overwrites the interferer's file and
// stops at its directory, a validated one rejects both creates, and a
// converging one lets both journaled creates win the tie-break. So the
// (applied, rejected, error) triples and the rank stores agree only if
// Merge took the cell's step; the test also holds the three twins apart,
// so that stays true of this journal.
func TestMergeFollowsRegisteredCell(t *testing.T) {
	type outcome struct {
		applied  int
		rejected []int
		err      error
	}
	show := func(o outcome) string {
		return fmt.Sprintf("applied %d, rejected %v, err %v", o.applied, o.rejected, o.err)
	}
	merge := func(cons policy.Consistency, viaClient bool) (outcome, *namespace.Store) {
		cl := NewCluster()
		c, intr := cl.NewClient("c0"), cl.NewClient("intr")
		var out outcome
		cl.Run(func(p Proc) {
			job, err := c.MkdirAll(p, "/job", 0755)
			if err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			if _, err := cl.DecouplePolicy(p, c, "/job", &Policy{Consistency: cons, Durability: DurNone,
				AllocatedInodes: 10, Interfere: InterfereAllow}); err != nil {
				t.Fatalf("%v: decouple: %v", cons, err)
			}
			root, _ := c.DecoupledRoot()
			for i := 0; i < 4; i++ {
				if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
					t.Fatalf("%v: local create: %v", cons, err)
				}
			}
			if _, err := intr.Create(p, job, "f1", 0600); err != nil {
				t.Fatalf("%v: interfering create: %v", cons, err)
			}
			if _, err := intr.Mkdir(p, job, "f2", 0700); err != nil {
				t.Fatalf("%v: interfering mkdir: %v", cons, err)
			}
			if viaClient {
				out.applied, out.rejected, out.err = c.Merge(p)
				return
			}
			evs, err := c.JournalEvents()
			if err != nil {
				t.Fatalf("%v: journal: %v", cons, err)
			}
			srv, bytes := cl.MDS(), c.JournalNominalBytes()
			switch cons {
			case ConsSpeculative:
				out.applied, out.rejected, out.err = srv.SpeculativeApply(p, evs, bytes)
			case ConsStrongEventual:
				out.applied, out.err = srv.ConvergeApply(p, evs, bytes)
			default:
				out.applied, out.err = srv.VolatileApply(p, evs, bytes)
			}
		})
		return out, cl.MDS().Store()
	}
	type twin struct {
		out   outcome
		store *namespace.Store
	}
	twins := make(map[policy.Consistency]twin)
	for _, cons := range policy.AllConsistencies() {
		got, gotStore := merge(cons, true)
		want, wantStore := merge(cons, false)
		if show(got) != show(want) {
			t.Errorf("%v: Merge: %s; the cell's apply: %s", cons, show(got), show(want))
		}
		if !namespace.Equal(gotStore, wantStore) {
			t.Errorf("%v: Merge left a different namespace than the cell's apply", cons)
		}
		twins[cons] = twin{want, wantStore}
		t.Logf("%v: %s", cons, show(want))
	}
	steps := []policy.Consistency{ConsWeak, ConsSpeculative, ConsStrongEventual}
	for i, a := range steps {
		for _, b := range steps[i+1:] {
			ta, tb := twins[a], twins[b]
			if show(ta.out) == show(tb.out) && namespace.Equal(ta.store, tb.store) {
				t.Errorf("the %v and %v merge steps agree on the colliding journal: %s", a, b, show(ta.out))
			}
		}
	}
}
