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

// TestStaleTableRedirect is the satellite regression test: a client
// whose routing replica is no longer refreshed (unsubscribed) keeps
// working after a migration via the typed ErrWrongRank redirect — the
// bounce carries the new epoch, the client refreshes and retries.
func TestStaleTableRedirect(t *testing.T) {
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
	// Freeze the client's routing view, then move the subtree under it.
	cl.Monitor().Unsubscribe("client.0")
	cl.Run(func(p Proc) {
		if err := cl.Migrate(p, "/job", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		if _, err := c.Create(p, dir, "after", 0644); err != nil {
			t.Fatalf("create after migrate: %v", err)
		}
	})
	if got := c.Stats().Redirects; got == 0 {
		t.Fatalf("redirects = 0, want a stale-table bounce and retry")
	}
	if _, err := cl.Metadata().Rank(1).Store().Resolve("/job/after"); err != nil {
		t.Fatalf("new owner missing post-migration create: %v", err)
	}
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
		if _, err := c.VolatileApply(p); err != nil {
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
		if n, err := c.VolatileApply(p); err != nil || n != 10 {
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
	b := cl.StartBalancer(BalancerConfig{
		Interval:  10 * time.Millisecond,
		Rounds:    8,
		Threshold: 1.3,
		MaxMoves:  2,
	})
	cl.RunAll()
	if len(b.Events()) == 0 {
		t.Fatalf("balancer took no action on a fully skewed cluster\n%s", b)
	}
	moved := 0
	for _, st := range cl.Subtrees() {
		if st.Rank == 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Errorf("no subtree ended up on rank 1\n%s", b)
	}
	samples := b.Samples()
	last := samples[len(samples)-1]
	if last.Imbalance >= 1.5 {
		t.Errorf("final imbalance = %.3f, want < 1.5\n%s", last.Imbalance, b)
	}
}

// TestMigrateUnderStormReal is the placement-table race test: on the
// real backend two clients storm one rank each while the subtree of one
// of them migrates there and back. The ranks' ownership checks, the
// clients' routing and refreshes, and the monitor's publishes all touch
// placement tables from different lock domains at once; under -race this
// fails unless tables and the migration count are safe to share. Nothing
// may be lost either.
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
	if got := cl.Metadata().Migrations(); got != 2 {
		t.Errorf("migrations = %d, want 2", got)
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
	if clients[0].Stats().Redirects == 0 {
		t.Error("no request bounced: the migrations did not overlap the storm")
	}
}
