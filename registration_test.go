package cudele

import (
	"errors"
	"fmt"
	"testing"

	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
)

// TestNestedRegistrationMovesWithAncestor: /a/job is registered
// strong/global (rpcs+stream) with interfere: block for c0, and then its
// ancestor /a moves to rank 1 — by Place and by Migrate. The registration
// of /a/job must move with /a: rank 1 names c0 as its owner, reserves its
// grant, refuses c1's create in /a/job with EBUSY and journals c0's. On
// both backends.
func TestNestedRegistrationMovesWithAncestor(t *testing.T) {
	moves := []struct {
		name string
		move func(p Proc, cl *Cluster) error
	}{
		{"place", func(p Proc, cl *Cluster) error { return cl.Monitor().Place(p, "/a", 1) }},
		{"migrate", func(p Proc, cl *Cluster) error { return cl.Migrate(p, "/a", 1) }},
	}
	for _, backend := range []Backend{BackendSim, BackendReal} {
		for _, mv := range moves {
			t.Run(fmt.Sprintf("%v/%s", backend, mv.name), func(t *testing.T) {
				cl := NewCluster(WithSeed(3), WithMDSRanks(2), WithBackend(backend))
				defer cl.Close()
				c0, c1 := cl.NewClient("c0"), cl.NewClient("c1")
				pol, err := policy.ParseFile("consistency: strong\ndurability: global\ninterfere: block\n")
				if err != nil {
					t.Fatal(err)
				}
				cl.Run(func(p Proc) {
					if _, err := c0.MkdirAll(p, "/a/job", 0755); err != nil {
						t.Fatalf("mkdir: %v", err)
					}
					if _, err := cl.Monitor().RegisterPolicy(p, "/a/job", pol, c0.Name()); err != nil {
						t.Fatalf("register /a/job: %v", err)
					}
					if err := mv.move(p, cl); err != nil {
						t.Fatalf("move /a: %v", err)
					}
				})
				meta := cl.Metadata()
				if rank := meta.Table().RankFor("/a/job"); rank != 1 {
					t.Fatalf("/a/job is on rank %d, want 1", rank)
				}
				r1 := meta.Rank(1)
				in, err := r1.Store().Resolve("/a/job")
				if err != nil {
					t.Fatalf("rank 1 resolve /a/job: %v", err)
				}
				if owner, ok := r1.Owner(in.Ino); !ok || owner != c0.Name() {
					t.Errorf("rank 1 owner of /a/job = %q, %v; want %s", owner, ok, c0.Name())
				}
				if got := r1.Store().ReservedRanges(); got != 1 {
					t.Errorf("rank 1 reserves %d grants, want /a/job's", got)
				}
				journaled := r1.Metrics().Journaled
				cl.Run(func(p Proc) {
					job, err := c1.Resolve(p, "/a/job")
					if err != nil {
						t.Fatalf("c1 resolve: %v", err)
					}
					if _, err := c1.Create(p, job, "intruder", 0644); !errors.Is(err, namespace.ErrBusy) {
						t.Errorf("interferer's create = %v, want EBUSY", err)
					}
					if job, err = c0.Resolve(p, "/a/job"); err != nil {
						t.Fatalf("c0 resolve: %v", err)
					}
					if _, err := c0.Create(p, job, "f", 0644); err != nil {
						t.Errorf("owner's create: %v", err)
					}
				})
				if got := r1.Metrics().Journaled - journaled; got != 1 {
					t.Errorf("rank 1 journaled %d events for the owner's create, want 1", got)
				}
			})
		}
	}
}

// TestAncestorRegistrationGovernsMovedChild: /a is registered
// strong/global (rpcs+stream) with interfere: block for c0, and its child
// /a/job goes to rank 1 — registered then placed, registered then
// migrated, or placed then registered. Rank 1 holds /a only in the
// ancestor chain of its import, and that copy must carry /a's
// registration: rank 1 refuses c1's create in /a/job with EBUSY and
// journals c0's. Once /a is unregistered, c1's create goes through. On
// both backends.
func TestAncestorRegistrationGovernsMovedChild(t *testing.T) {
	pol, err := policy.ParseFile("consistency: strong\ndurability: global\ninterfere: block\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendSim, BackendReal} {
		for _, order := range [][2]string{{"register", "place"}, {"register", "migrate"}, {"place", "register"}} {
			t.Run(fmt.Sprintf("%v/%s-%s", backend, order[0], order[1]), func(t *testing.T) {
				cl := NewCluster(WithSeed(3), WithMDSRanks(2), WithBackend(backend))
				defer cl.Close()
				c0, c1 := cl.NewClient("c0"), cl.NewClient("c1")
				var job Ino
				cl.Run(func(p Proc) {
					var err error
					if job, err = c0.MkdirAll(p, "/a/job", 0755); err != nil {
						t.Fatalf("mkdir: %v", err)
					}
					for _, step := range order {
						switch step {
						case "register":
							_, err = cl.Monitor().RegisterPolicy(p, "/a", pol, c0.Name())
						case "place":
							err = cl.Monitor().Place(p, "/a/job", 1)
						case "migrate":
							err = cl.Migrate(p, "/a/job", 1)
						}
						if err != nil {
							t.Fatalf("%s: %v", step, err)
						}
					}
				})
				if rank := cl.Metadata().Table().RankFor("/a/job"); rank != 1 {
					t.Fatalf("/a/job is on rank %d, want 1", rank)
				}
				r1 := cl.Metadata().Rank(1)
				journaled := r1.Metrics().Journaled
				cl.Run(func(p Proc) {
					if _, err := c1.Create(p, job, "intruder", 0644); !errors.Is(err, namespace.ErrBusy) {
						t.Errorf("interferer's create = %v, want EBUSY", err)
					}
					if _, err := c0.Create(p, job, "f", 0644); err != nil {
						t.Errorf("owner's create: %v", err)
					}
				})
				if got := r1.Metrics().Journaled - journaled; got != 1 {
					t.Errorf("rank 1 journaled %d events for the owner's create, want 1", got)
				}
				cl.Run(func(p Proc) {
					if err := cl.Monitor().Unregister(p, "/a"); err != nil {
						t.Fatalf("unregister /a: %v", err)
					}
					if _, err := c1.Create(p, job, "after", 0644); err != nil {
						t.Errorf("interferer's create after /a is unregistered: %v", err)
					}
				})
			})
		}
	}
}

// TestRecoupleOutlivesAbortedImport: a migration of the registered /a
// fails its export-commit record after rank 1 adopted the registration,
// so rank 1 keeps an unreachable copy of /a that still holds it. /a is
// recoupled and then migrates to rank 1 for good. The import installs
// over the stale copy, and the registration must not come back with it:
// rank 1 names no owner and serves an interferer's create.
func TestRecoupleOutlivesAbortedImport(t *testing.T) {
	cl := NewCluster(WithSeed(3), WithMDSRanks(2))
	defer cl.Close()
	c0, c1 := cl.NewClient("c0"), cl.NewClient("c1")
	pol, err := policy.ParseFile("interfere: block\n")
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(func(p Proc) {
		if _, err := c0.MkdirAll(p, "/a", 0755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if _, err := cl.Monitor().RegisterPolicy(p, "/a", pol, c0.Name()); err != nil {
			t.Fatalf("register /a: %v", err)
		}
		inj := rados.NewFaultInjector(1)
		inj.WriteErrorProb, inj.MaxFaults = 1, 1
		inj.Match = func(oid rados.ObjectID) bool { return oid.Pool == mds.MigrationPool }
		cl.Objects().SetFaults(inj)
		if err := cl.Migrate(p, "/a", 1); err == nil {
			t.Fatal("migrate with a failing export-commit record committed")
		}
		if err := cl.Recouple(p, "/a"); err != nil {
			t.Fatalf("recouple: %v", err)
		}
		if err := cl.Migrate(p, "/a", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		a, err := c1.Resolve(p, "/a")
		if err == nil {
			_, err = c1.Create(p, a, "x", 0644)
		}
		if err != nil {
			t.Errorf("create in the recoupled /a on rank 1: %v", err)
		}
	})
	r1 := cl.Metadata().Rank(1)
	in, err := r1.Store().Resolve("/a")
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := r1.Owner(in.Ino); ok {
		t.Errorf("rank 1 names %s the owner of the recoupled /a", owner)
	}
}

// TestRestartRedeliversRegistrations: a strong/global (rpcs+stream)
// registration with interfere: block for c0 survives a crash and restart
// of a rank that holds its root, because the monitor hands the restarting
// rank every such registration. The rank restarts as /job's owner on a
// one-rank cluster, or, on two ranks, as the holder of /a only in the
// ancestor chain of /a/job, which was placed there. After the restart and
// remount the rank refuses c1's create with EBUSY, journals all of c0's,
// and keeps c0's grant reserved. On both backends.
func TestRestartRedeliversRegistrations(t *testing.T) {
	pol, err := policy.ParseFile("consistency: rpcs\ndurability: stream\ninterfere: block\n")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	cases := []struct {
		name            string
		ranks           int
		registered, dir string
		place           bool // place dir on rank 1 before the restart
		rank            int  // the rank that restarts
	}{
		{"owner", 1, "/job", "/job", false, 0},
		{"ancestor-copy", 2, "/a", "/a/job", true, 1},
	}
	for _, backend := range []Backend{BackendSim, BackendReal} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/%s", backend, tc.name), func(t *testing.T) {
				cl := NewCluster(WithSeed(3), WithMDSRanks(tc.ranks), WithBackend(backend))
				defer cl.Close()
				c0, c1 := cl.NewClient("c0"), cl.NewClient("c1")
				rank := cl.Metadata().Rank(tc.rank)
				cl.Run(func(p Proc) {
					_, err := c0.MkdirAll(p, tc.dir, 0755)
					if err == nil {
						err = cl.MDS().SaveStore(p)
					}
					if err == nil {
						_, err = cl.Monitor().RegisterPolicy(p, tc.registered, pol, c0.Name())
					}
					if err == nil && tc.place {
						err = cl.Monitor().Place(p, tc.dir, 1)
					}
					if err != nil {
						t.Fatalf("setup: %v", err)
					}
					rank.Crash(p)
					if err := cl.Monitor().Restart(p, tc.rank); err != nil {
						t.Fatalf("restart rank %d: %v", tc.rank, err)
					}
					for _, c := range []*Client{c0, c1} {
						c.Unmount(p)
						c.Mount(p)
					}
				})
				journaled := rank.Metrics().Journaled
				cl.Run(func(p Proc) {
					dir, err := c1.Resolve(p, tc.dir)
					if err != nil {
						t.Fatalf("c1 resolve: %v", err)
					}
					if _, err := c1.Create(p, dir, "intruder", 0644); !errors.Is(err, namespace.ErrBusy) {
						t.Errorf("interferer's create after the restart = %v, want EBUSY", err)
					}
					if dir, err = c0.Resolve(p, tc.dir); err != nil {
						t.Fatalf("c0 resolve: %v", err)
					}
					for i := range n {
						if _, err := c0.Create(p, dir, fmt.Sprintf("f%d", i), 0644); err != nil {
							t.Errorf("owner's create %d: %v", i, err)
						}
					}
					rank.FlushJournal(p)
				})
				if got := rank.Metrics().Journaled - journaled; got != n {
					t.Errorf("rank %d journaled %d of the owner's %d creates after the restart", tc.rank, got, n)
				}
				if got := rank.Store().ReservedRanges(); got != 1 {
					t.Errorf("rank %d reserves %d grants after the restart, want c0's", tc.rank, got)
				}
			})
		}
	}
}
