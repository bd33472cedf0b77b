package cudele

import (
	"fmt"
	"testing"
	"time"
)

// TestMigrateClientTransparent: clients keep creating while their
// subtree migrates between ranks. Requests that land during the freeze
// bounce with a redirect and retry transparently; nothing is lost and
// the client ends up talking to the new owner.
func TestMigrateClientTransparent(t *testing.T) {
	cl := NewCluster(WithMDSRanks(2))
	c := cl.NewClient("client.0")
	var created int
	cl.Go("load", func(p Proc) {
		dir, err := c.MkdirAll(p, "/job", 0755)
		if err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		for i := 0; i < 200; i++ {
			if _, err := c.Create(p, dir, fmt.Sprintf("f%04d", i), 0644); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			created++
		}
	})
	cl.Go("migrate", func(p Proc) {
		// Wait (deterministically, on virtual time) until the load task
		// has built the tree, then migrate it out from under it.
		for {
			p.Sleep(time.Millisecond)
			if _, err := cl.MDS().Store().Resolve("/job/f0005"); err == nil {
				break
			}
		}
		if err := cl.Migrate(p, "/job", 1); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	cl.RunAll()
	if created != 200 {
		t.Fatalf("created = %d, want 200", created)
	}
	if got := cl.Metadata().Table().RankFor("/job"); got != 1 {
		t.Fatalf("RankFor(/job) = %d, want 1", got)
	}
	// Every file exists exactly once, on the new owner.
	store := cl.Metadata().Rank(1).Store()
	in, err := store.Resolve("/job")
	if err != nil {
		t.Fatalf("dst resolve: %v", err)
	}
	names, err := store.ReadDir(in.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 200 {
		t.Errorf("dst readdir = %d entries, want 200", len(names))
	}
	// The freeze window was long enough that at least one request
	// bounced and retried (the migration streams dirs over simulated
	// wire latency while the load loop runs).
	if got := c.Stats().Redirects; got == 0 {
		t.Errorf("redirects = 0, want bounced-and-retried requests during the freeze")
	}
	// The freeze revoked the client's directory cap.
	if got := cl.Metadata().Rank(0).Metrics().CapRevokes; got == 0 {
		t.Errorf("cap revokes = 0, want the freeze to revoke the load client's cap")
	}
}

// TestCreateIntoFrozenSubtreeRedirects: a create sent while its subtree
// is frozen for an in-flight migration bounces with the typed
// ErrWrongRank redirect, and the client retries until the migration has
// committed and the create lands on the new owner.
func TestCreateIntoFrozenSubtreeRedirects(t *testing.T) {
	cl := NewCluster(WithMDSRanks(2))
	c := cl.NewClient("client.0")
	var dir Ino
	cl.Run(func(p Proc) {
		var err error
		if dir, err = c.MkdirAll(p, "/job", 0755); err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
		if _, err := c.Create(p, dir, "before", 0644); err != nil {
			t.Fatalf("create: %v", err)
		}
	})
	cl.Go("migrate", func(p Proc) {
		if err := cl.Migrate(p, "/job", 1); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	cl.Go("create", func(p Proc) {
		if !waitFrozen(p, cl, "/job") {
			t.Error("/job never froze on rank 0")
			return
		}
		if _, err := c.Create(p, dir, "after", 0644); err != nil {
			t.Errorf("create during migration: %v", err)
		}
	})
	cl.RunAll()
	if got := c.Stats().Redirects; got == 0 {
		t.Fatalf("redirects = 0, want a bounce off the frozen subtree and a retry")
	}
	if _, err := cl.Metadata().Rank(1).Store().Resolve("/job/after"); err != nil {
		t.Fatalf("new owner missing the create sent mid-migration: %v", err)
	}
}

// waitFrozen polls, in virtual microseconds, until rank 0 has frozen
// path for export; false if it never does within a virtual second.
func waitFrozen(p Proc, cl *Cluster, path string) bool {
	for polls := 0; !cl.Metadata().Rank(0).Frozen(path); polls++ {
		if polls == 1_000_000 {
			return false
		}
		p.Sleep(time.Microsecond)
	}
	return true
}

// TestMigrateDecoupledClient: a decoupled subtree migrates while its
// client is between merges; the importer reserves the grant the client
// still draws from, the next Volatile Apply lands on the new owner with
// that grant, and the merged namespace is intact.
func TestMigrateDecoupledClient(t *testing.T) {
	cl := NewCluster(WithMDSRanks(2))
	c := cl.NewClient("client.0")
	cl.Run(func(p Proc) {
		if _, err := c.MkdirAll(p, "/dec", 0755); err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
		if _, err := cl.Decouple(p, c, "/dec",
			"consistency: weak\ndurability: none\nallocated_inodes: 1000\n"); err != nil {
			t.Fatalf("decouple: %v", err)
		}
		root, _ := c.DecoupledRoot()
		for i := 0; i < 10; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("a%d", i), 0644); err != nil {
				t.Fatalf("local create: %v", err)
			}
		}
		if _, _, err := c.Merge(p); err != nil {
			t.Fatalf("first apply: %v", err)
		}
		if err := cl.Migrate(p, "/dec", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		for i := 0; i < 10; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("b%d", i), 0644); err != nil {
				t.Fatalf("local create: %v", err)
			}
		}
		if n, _, err := c.Merge(p); err != nil || n != 10 {
			t.Fatalf("apply after migrate = %d, %v; want all 10 events", n, err)
		}
	})
	store := cl.Metadata().Rank(1).Store()
	if got := store.ReservedRanges(); got != 1 {
		t.Errorf("importer reserves %d inode ranges, want the migrated subtree's grant", got)
	}
	in, err := store.Resolve("/dec")
	if err != nil {
		t.Fatalf("dst resolve: %v", err)
	}
	names, err := store.ReadDir(in.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 20 {
		t.Errorf("dst /dec has %d entries, want 20 (both merges)", len(names))
	}
}

// TestBalancerConverges: all load lands on rank 0; the heat-driven
// balancer exports subtrees until the imbalance factor falls under its
// threshold.
func TestBalancerConverges(t *testing.T) {
	cl := NewCluster(WithMDSRanks(2))
	cl.EnableHeat(50 * time.Millisecond)
	c := cl.NewClient("client.0")
	cl.Go("load", func(p Proc) {
		dirs := make([]Ino, 4)
		for i := range dirs {
			d, err := c.MkdirAll(p, fmt.Sprintf("/job%d", i), 0755)
			if err != nil {
				t.Errorf("mkdirall: %v", err)
				return
			}
			dirs[i] = d
			if err := cl.Monitor().Place(p, fmt.Sprintf("/job%d", i), 0); err != nil {
				t.Errorf("place: %v", err)
				return
			}
		}
		for round := 0; round < 40; round++ {
			for i, d := range dirs {
				if _, err := c.Create(p, d, fmt.Sprintf("f%d-%d", round, i), 0644); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			p.Sleep(2 * time.Millisecond)
		}
	})
	b := cl.StartBalancer(BalancerConfig{Interval: 10 * time.Millisecond, Rounds: 8})
	cl.RunAll()
	if len(b.Events()) == 0 {
		t.Fatalf("balancer took no action on a fully skewed cluster: samples %+v", b.Samples())
	}
	moved := 0
	for _, st := range cl.Subtrees() {
		if cl.Metadata().Table().RankFor(st.Path) == 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Errorf("no subtree ended up on rank 1: events %+v", b.Events())
	}
	samples := b.Samples()
	last := samples[len(samples)-1]
	if last.Imbalance >= 1.5 {
		t.Errorf("final imbalance = %.3f, want < 1.5: events %+v", last.Imbalance, b.Events())
	}
}

// TestHeatReportCountsIdleRanks: the heat report and the balancer read
// one imbalance. Fifty creates into /job on a four-rank cluster load rank
// 0 alone, which is max/mean = 4.00 with the three idle ranks counted —
// the factor the balancer acts on. A report over only the ranks that have
// heat cells called that cluster balanced (1.00).
func TestHeatReportCountsIdleRanks(t *testing.T) {
	cl := NewCluster(WithMDSRanks(4))
	if rep := cl.HeatReport(); rep.Cells != nil || rep.Ranks != nil || rep.Imbalance != 0 {
		t.Errorf("heat off: report = %+v, want the zero report", rep)
	}
	cl.EnableHeat(time.Minute)
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		dir, err := c.MkdirAll(p, "/job", 0755)
		if err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			if _, err := c.Create(p, dir, fmt.Sprintf("f%02d", i), 0644); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
	})
	rep := cl.HeatReport()
	if got := fmt.Sprintf("%.2f", rep.Imbalance); got != "4.00" {
		t.Errorf("imbalance = %s, want 4.00 (one busy rank of four)", got)
	}
	if len(rep.Ranks) != 4 {
		t.Fatalf("report has %d ranks, want 4: %+v", len(rep.Ranks), rep.Ranks)
	}
	for r, rl := range rep.Ranks {
		busy := r == 0
		if rl.Rank != r || (rl.Load > 0) != busy || (busy && rl.Share != 1) || (!busy && rl.Share != 0) {
			t.Errorf("rank %d = %+v, want rank 0 to carry every share", r, rl)
		}
	}
}

// TestMigrateUnderStormReal is the placement-table race test: on the
// real backend two clients storm one rank each while the subtree of one
// of them migrates there and back. The ranks' ownership checks, the
// clients' routing and the monitor's table flips all touch the placement
// table from different lock domains at once; under -race this fails
// unless the table and the migration count are safe to share. Nothing
// may be lost either. Whether a request lands in a freeze and bounces is
// the scheduler's interleaving, so the redirect count is logged, not
// asserted (TestCreateIntoFrozenSubtreeRedirects proves the bounce on
// the simulator).
func TestMigrateUnderStormReal(t *testing.T) {
	cl := NewCluster(WithSeed(5), WithConfig(stressConfig()), WithMDSRanks(2), WithBackend(BackendReal))
	defer cl.Close()
	clients := []*Client{cl.NewClient("c0"), cl.NewClient("c1")}
	dirs := make([]Ino, len(clients))
	cl.Run(func(p Proc) {
		for i, c := range clients {
			path := fmt.Sprintf("/s%d", i)
			d, err := c.MkdirAll(p, path, 0755)
			if err != nil {
				t.Errorf("mkdir %s: %v", path, err)
				return
			}
			dirs[i] = d
			if err := cl.Monitor().Place(p, path, i); err != nil {
				t.Errorf("place %s: %v", path, err)
			}
		}
	})
	const files = 400
	for i, c := range clients {
		i, c := i, c
		cl.Go(c.Name(), func(p Proc) {
			for k := 0; k < files; k++ {
				if _, err := c.Create(p, dirs[i], fmt.Sprintf("f%04d", k), 0644); err != nil {
					t.Errorf("%s: create %d: %v", c.Name(), k, err)
					return
				}
			}
		})
	}
	cl.Go("migrator", func(p Proc) {
		for _, dst := range []int{1, 0} {
			if err := cl.Migrate(p, "/s0", dst); err != nil {
				t.Errorf("migrate /s0 to rank %d: %v", dst, err)
				return
			}
		}
	})
	cl.RunAll()
	if err := cl.Runtime().LeakCheck(); err != nil {
		t.Fatal(err)
	}
	// The set-up Place of /s1 onto rank 1 is a handoff too.
	if got := cl.Metadata().Migrations(); got != 3 {
		t.Errorf("migrations = %d, want 3", got)
	}
	for i := range clients {
		path := fmt.Sprintf("/s%d", i)
		store := cl.Metadata().Rank(cl.Metadata().Table().RankFor(path)).Store()
		in, err := store.Resolve(path)
		if err != nil {
			t.Fatalf("resolve %s on its owner: %v", path, err)
		}
		names, err := store.ReadDir(in.Ino)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != files {
			t.Errorf("%s has %d entries, want %d", path, len(names), files)
		}
	}
	t.Logf("%d of client 0's requests bounced off a frozen subtree and were retried", clients[0].Stats().Redirects)
}
