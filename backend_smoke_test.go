package cudele

import (
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"cudele/internal/client"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/trace"
)

// smokeWorkload runs a small deterministic mixed workload — RPC creates
// plus a decoupled subtree that is merged back — and returns the sorted
// list of namespace paths it produced.
func smokeWorkload(t *testing.T, cl *Cluster) []string {
	t.Helper()
	c0 := cl.NewClient("c0")
	c1 := cl.NewClient("c1")
	cl.Run(func(p Proc) {
		dir, err := c0.MkdirAll(p, "/home/a", 0755)
		if err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			if _, err := c0.Create(p, dir, fmt.Sprintf("rpc.%02d", i), 0644); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		if _, err := c1.MkdirAll(p, "/home/b", 0755); err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		if _, err := cl.Decouple(p, c1, "/home/b",
			"consistency: weak\ndurability: none\nallocated_inodes: 500\n"); err != nil {
			t.Errorf("decouple: %v", err)
			return
		}
		root, _ := c1.DecoupledRoot()
		sub, err := c1.LocalMkdir(p, root, "sub", 0755)
		if err != nil {
			t.Errorf("local mkdir: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			if _, err := c1.LocalCreate(p, root, fmt.Sprintf("dec.%02d", i), 0644); err != nil {
				t.Errorf("local create: %v", err)
				return
			}
		}
		if _, err := c1.LocalCreate(p, sub, "deep", 0644); err != nil {
			t.Errorf("local create: %v", err)
			return
		}
		if _, err := c1.VolatileApply(p); err != nil {
			t.Errorf("merge: %v", err)
			return
		}
	})
	if n := cl.Close(); n != 0 {
		t.Fatalf("close reaped %d tasks, want 0", n)
	}
	var paths []string
	if err := cl.MDS().Store().Walk(RootIno, func(p string, in *namespace.Inode) error {
		paths = append(paths, p)
		return nil
	}); err != nil {
		t.Fatalf("walk: %v", err)
	}
	sort.Strings(paths)
	return paths
}

// TestBackendSmokeSimVsReal is the cross-backend invariant: the same
// protocol stack driven by the same workload ends in the same namespace
// whether it executes on simulated time or on real goroutines and wall
// clocks. Timing differs across backends by design; namespace contents
// must not.
func TestBackendSmokeSimVsReal(t *testing.T) {
	simPaths := smokeWorkload(t, NewCluster(WithSeed(3)))
	realPaths := smokeWorkload(t, NewCluster(WithSeed(3), WithBackend(BackendReal)))
	if len(simPaths) == 0 {
		t.Fatal("sim workload produced an empty namespace")
	}
	if len(simPaths) != len(realPaths) {
		t.Fatalf("namespace size: sim %d paths, real %d paths", len(simPaths), len(realPaths))
	}
	for i := range simPaths {
		if simPaths[i] != realPaths[i] {
			t.Fatalf("namespace diverges at %d: sim %q, real %q", i, simPaths[i], realPaths[i])
		}
	}
}

// TestBackendSmokeRealWithDataDir runs the workload on the real backend
// with a data dir, then recovers a fresh cluster from the same files and
// checks the globally persisted state came back.
func TestBackendSmokeRealWithDataDir(t *testing.T) {
	dir := t.TempDir()
	cl := NewCluster(WithSeed(3), WithBackend(BackendReal), WithDataDir(dir))
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		if _, err := c.MkdirAll(p, "/data", 0755); err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		if _, err := cl.Decouple(p, c, "/data",
			"consistency: weak\ndurability: global\nallocated_inodes: 100\n"); err != nil {
			t.Errorf("decouple: %v", err)
			return
		}
		root, _ := c.DecoupledRoot()
		for i := 0; i < 10; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("f.%d", i), 0644); err != nil {
				t.Errorf("local create: %v", err)
				return
			}
		}
		if err := c.GlobalPersist(p); err != nil {
			t.Errorf("global persist: %v", err)
		}
	})
	// The object log's counters are exported with a data dir, and every
	// acknowledged record sat behind a commit; without one they are absent.
	logMetrics := []string{"cudele_rados_log_records_total", "cudele_rados_log_commits_total",
		"cudele_rados_log_bytes_total", "cudele_rados_log_checkpoints_total", "cudele_rados_log_size_bytes"}
	reg := cl.CollectMetrics()
	for _, name := range logMetrics {
		if _, ok := reg.Value(name); !ok {
			t.Errorf("metrics with a data dir are missing %s", name)
		}
	}
	if st := cl.Objects().Stats(); st.Records == 0 || st.Commits == 0 || st.Commits > st.Records || st.LogSize == 0 {
		t.Errorf("object log stats after a global persist: %+v", st.LogStats)
	}
	cl.Close()
	// Objects are records in one log, never files of their own.
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if rel, _ := filepath.Rel(dir, path); err == nil && !d.IsDir() && rel != filepath.Join("objects", "objects.log") {
			t.Errorf("data dir holds %s; want objects/objects.log and nothing else", rel)
		}
		return err
	})
	bare := NewCluster(WithSeed(3), WithBackend(BackendReal))
	reg = bare.CollectMetrics()
	bare.Close()
	for _, name := range logMetrics {
		if _, ok := reg.Value(name); ok {
			t.Errorf("metrics without a data dir include %s", name)
		}
	}

	// A fresh cluster over the same data dir must see the persisted
	// objects (recovery happens in AttachStore via NewCluster).
	cl2 := NewCluster(WithSeed(4), WithBackend(BackendReal), WithDataDir(dir))
	defer cl2.Close()
	var names []string
	cl2.Run(func(p Proc) {
		names = cl2.Objects().List(p, client.ClientJournalPool)
	})
	if len(names) == 0 {
		t.Fatal("no persisted objects recovered from data dir")
	}
}

// TestBackendSmokeLoopback exercises the loopback-TCP wire option: every
// Call does a real kernel socket round trip. Small workload; the test
// asserts correctness, not latency.
func TestBackendSmokeLoopback(t *testing.T) {
	cl := NewCluster(WithSeed(5), WithBackend(BackendReal), WithLoopbackNet())
	defer cl.Close()
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		d, err := c.MkdirAll(p, "/net", 0755)
		if err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		for i := 0; i < 5; i++ {
			if _, err := c.Create(p, d, fmt.Sprintf("f.%d", i), 0644); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
	})
	if _, err := cl.MDS().Store().Resolve("/net/f.4"); err != nil {
		t.Fatalf("file missing after loopback run: %v", err)
	}
}

// TestLoopbackRoundTripsEqualRPCs counts instead of timing: over the
// loopback wire every metadata RPC is exactly one socket round trip — the
// frame is the request, its echo the reply — and nothing else makes one.
// Without the option, on either backend, the metric is not exported.
func TestLoopbackRoundTripsEqualRPCs(t *testing.T) {
	const n = 40
	cl := NewCluster(WithSeed(5), WithBackend(BackendReal), WithLoopbackNet())
	defer cl.Close()
	c := cl.NewClient("c0")
	rpcs := func() float64 {
		v, _ := cl.CollectMetrics().Value("cudele_client_rpcs_total", trace.KV{Key: "client", Val: "c0"})
		return v
	}
	var afterMkdir float64
	cl.Run(func(p Proc) {
		d, err := c.MkdirAll(p, "/net", 0755)
		if err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		afterMkdir = rpcs()
		for i := 0; i < n; i++ {
			if _, err := c.Create(p, d, fmt.Sprintf("f.%d", i), 0644); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
	})
	trips, ok := cl.CollectMetrics().Value("cudele_net_round_trips_total")
	if !ok {
		t.Fatal("cudele_net_round_trips_total is not exported with the loopback wire on")
	}
	// A create is one RPC once the directory's capability is held; the
	// first also looks the name up.
	if total := rpcs(); afterMkdir == 0 || total < afterMkdir+n || total > afterMkdir+n+1 || trips != total {
		t.Fatalf("%d creates after MkdirAll's %v RPCs: %v RPCs and %v round trips, want %v or one more, of each",
			n, afterMkdir, total, trips, afterMkdir+n)
	}
	for _, backend := range []Backend{BackendSim, BackendReal} {
		plain := NewCluster(WithSeed(5), WithBackend(backend))
		if _, ok := plain.CollectMetrics().Value("cudele_net_round_trips_total"); ok {
			t.Errorf("backend %v without the loopback wire exports cudele_net_round_trips_total", backend)
		}
		plain.Close()
	}
}

// TestRealBackendExportsParkCounts: the real backend's engine counts its
// waits — parks, and parks whose wakeup did not come within the poll
// window so the task blocked in the scheduler — and exports both whatever
// else is on; the simulator exports neither, so its export order is what
// it was. Two clients read one rank whose service times are a nanosecond,
// one call in fifty a listing long enough for the other client to fall
// asleep on the rank's domain: the shape in which blocking at once convoys
// on the rank's CPU. Parks per RPC is logged and not asserted: it is the
// scheduler's number (about 0.6 when every park blocked at once, well
// under 0.2 since a parking task polls first).
func TestRealBackendExportsParkCounts(t *testing.T) {
	const clients, calls, files = 2, 2000, 1000
	cfg := stressConfig()
	cfg.MDSOpTime, cfg.MDSLookupTime = 1, 1
	for _, backend := range []Backend{BackendReal, BackendSim} {
		cl := NewCluster(WithSeed(9), WithBackend(backend), WithConfig(cfg))
		st := cl.MDS().Store()
		dir, err := st.MkdirAll("/tree", namespace.CreateAttrs{Mode: 0755})
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < files; f++ {
			if _, err := st.Create(dir.Ino, fmt.Sprintf("f%d", f), namespace.CreateAttrs{Mode: 0644}); err != nil {
				t.Fatal(err)
			}
		}
		cs := make([]*Client, clients) // set-up code: all of it before any task runs
		for i := range cs {
			cs[i] = cl.NewClient(fmt.Sprintf("c%d", i))
		}
		for i, c := range cs {
			cl.Go(c.Name(), func(p Proc) {
				for k := 0; k < calls; k++ {
					var err error
					if k%50 == 49 {
						_, err = c.ReadDir(p, dir.Ino)
					} else {
						_, err = c.Lookup(p, dir.Ino, fmt.Sprintf("f%d", (k+i)%files))
					}
					if err != nil {
						t.Errorf("call %d: %v", k, err)
						return
					}
				}
			})
		}
		cl.RunAll()
		reg := cl.CollectMetrics()
		parks, okParks := reg.Value("cudele_realrt_parks_total")
		blocked, okBlocked := reg.Value("cudele_realrt_parks_blocked_total")
		if backend == BackendSim {
			if okParks || okBlocked {
				t.Errorf("the simulator exports the real backend's park counts")
			}
		} else if !okParks || !okBlocked || blocked > parks {
			t.Errorf("real backend: parks %v (exported %v), blocked %v (exported %v); want both exported, blocked <= parks",
				parks, okParks, blocked, okBlocked)
		} else {
			t.Logf("%d RPCs: %v parks (%.2f per RPC), %v of them blocked in the scheduler",
				clients*calls, parks, parks/(clients*calls), blocked)
		}
		if n := cl.Close(); n != 0 {
			t.Errorf("backend %v: close reaped %d tasks, want 0", backend, n)
		}
	}
}

// stressConfig is the calibrated model with its per-operation service
// times cut to microseconds, so the real-backend stress run spends its
// time in the program and not in time.Sleep. Both backends use it.
func stressConfig() Config {
	cfg := DefaultConfig()
	cfg.NetLatency = 0
	cfg.ClientOpOverhead, cfg.ClientAppendTime = 0, 1
	cfg.MDSOpTime, cfg.MDSLookupTime, cfg.MDSApplyTime = 2000, 1000, 1000
	cfg.MDSMergeSetup, cfg.MDSCapRevokeTime, cfg.MDSSessionOverhead = 0, 0, 0
	cfg.OSDOpLatency = 1000
	cfg.MigrateRetryDelay, cfg.MergeRetryDelay = 200_000, 200_000
	return cfg
}

// stressModes are the consistency cells whose composition runs decoupled
// (strong consistency is the RPC clients' cell).
var stressModes = []policy.Consistency{
	policy.ConsInvisible, policy.ConsWeak, policy.ConsSpeculative, policy.ConsStrongEventual,
}

// stressWorkload drives every daemon of a two-rank cluster at once: four
// clients mutate private directories by RPC (two per rank), four more
// run a decoupled job and its Table I composition (one per consistency
// cell), one directory is migrated online under its client's feet, and
// the heat-driven balancer runs throughout. during, when non-nil, is
// started once set-up is over and stopped (by the func it returns) when
// the tasks have drained. stressWorkload returns the global namespace as
// the sorted list of paths, each read from the rank that owns it.
func stressWorkload(t *testing.T, cl *Cluster, during func() (stop func())) []string {
	t.Helper()
	const rpcClients, rpcOps, localOps = 4, 150, 60
	cl.EnableHeat(time.Second)
	rpc := make([]*Client, rpcClients)
	for i := range rpc {
		rpc[i] = cl.NewClient(fmt.Sprintf("rpc%d", i))
	}
	dec := make([]*Client, len(stressModes))
	for j := range dec {
		dec[j] = cl.NewClient(fmt.Sprintf("dec%d", j))
	}
	dirs := make([]Ino, rpcClients)
	cl.Run(func(p Proc) {
		for i, c := range rpc {
			path := fmt.Sprintf("/r%d", i)
			d, err := c.MkdirAll(p, path, 0755)
			if err != nil {
				t.Errorf("mkdir %s: %v", path, err)
				return
			}
			dirs[i] = d
			if err := cl.Monitor().Place(p, path, i%2); err != nil {
				t.Errorf("place %s: %v", path, err)
				return
			}
		}
		for j, c := range dec {
			path := fmt.Sprintf("/d%d", j)
			if _, err := c.MkdirAll(p, path, 0755); err != nil {
				t.Errorf("mkdir %s: %v", path, err)
				return
			}
			if _, err := cl.DecouplePolicy(p, c, path, &Policy{
				Consistency: stressModes[j], Durability: DurNone,
				AllocatedInodes: 4 * localOps, Interfere: InterfereAllow, Rank: j % 2,
			}); err != nil {
				t.Errorf("decouple %s: %v", path, err)
				return
			}
		}
	})
	if t.Failed() {
		return nil
	}
	stop := func() {}
	if during != nil {
		stop = during()
	}

	bal := cl.StartBalancer(BalancerConfig{Interval: 300 * time.Microsecond, Rounds: 12})
	for i, c := range rpc {
		i, c := i, c
		cl.Go(c.Name(), func(p Proc) {
			fail := func(op string, k int, err error) bool {
				if err != nil {
					t.Errorf("%s: %s %d: %v", c.Name(), op, k, err)
				}
				return err != nil
			}
			for k := 0; k < rpcOps; k++ {
				ino, err := c.Create(p, dirs[i], fmt.Sprintf("f%03d", k), 0644)
				if fail("create", k, err) {
					return
				}
				switch {
				case k%5 == 4:
					err = c.Unlink(p, dirs[i], fmt.Sprintf("f%03d", k))
				case k%7 == 6:
					err = c.Rename(p, dirs[i], fmt.Sprintf("f%03d", k), dirs[i], fmt.Sprintf("g%03d", k))
				case k%11 == 10:
					err = c.SetAttr(p, ino, 0600, 1, 1, uint64(k), int64(k))
				}
				if fail("mutate", k, err) {
					return
				}
			}
		})
	}
	for j, c := range dec {
		j, c := j, c
		cl.Go(c.Name(), func(p Proc) {
			root, err := c.DecoupledRoot()
			if err != nil {
				t.Errorf("%s: %v", c.Name(), err)
				return
			}
			sub, err := c.LocalMkdir(p, root, "sub", 0755)
			if err != nil {
				t.Errorf("%s: local mkdir: %v", c.Name(), err)
				return
			}
			for k := 0; k < localOps; k++ {
				parent := root
				if k%3 == 0 {
					parent = sub
				}
				if _, err := c.LocalCreate(p, parent, fmt.Sprintf("l%03d", k), 0644); err != nil {
					t.Errorf("%s: local create %d: %v", c.Name(), k, err)
					return
				}
			}
			comp, err := CompileTableI(stressModes[j], DurNone)
			if err == nil {
				err = c.RunComposition(p, comp)
			}
			if err != nil {
				t.Errorf("%s: composition: %v", c.Name(), err)
			}
		})
	}
	cl.Go("migrator", func(p Proc) {
		// The freeze is refused while a merge is in flight on the source
		// and while the balancer has the subtree; try again shortly.
		var err error
		for try := 0; try < 200; try++ {
			if err = cl.Migrate(p, "/r0", 1); err == nil {
				return
			}
			p.Sleep(200 * time.Microsecond)
		}
		t.Errorf("migrate /r0: %v", err)
	})
	cl.Go("balancer.wait", func(p Proc) { bal.Wait(p) })
	cl.RunAll()
	stop()

	if err := cl.Runtime().LeakCheck(); err != nil {
		t.Error(err)
	}
	if n := cl.Close(); n != 0 {
		t.Errorf("close reaped %d tasks, want 0", n)
	}
	if cl.Metadata().Migrations() < 1 {
		t.Errorf("no migration committed")
	}
	var paths []string
	table := cl.Metadata().Table()
	for r := 0; r < cl.Metadata().Ranks(); r++ {
		r := r
		if err := cl.Metadata().Rank(r).Store().Walk(RootIno, func(p string, _ *namespace.Inode) error {
			if table.RankFor(p) == r {
				paths = append(paths, p)
			}
			return nil
		}); err != nil {
			t.Fatalf("walk rank %d: %v", r, err)
		}
	}
	sort.Strings(paths)
	return paths
}

// TestBackendSmokeMultiRankStress is the lock-domain stress test: the
// stress workload on the real backend — with /metrics scraped from an
// outside goroutine the whole time, so Exclusive contends with every
// domain — must end in the same namespace, path for path, as the same
// workload on the simulator, with no task leaked. Run under -race it is
// the check that every piece of daemon state is reached only inside its
// owner's domain.
func TestBackendSmokeMultiRankStress(t *testing.T) {
	simPaths := stressWorkload(t, NewCluster(WithSeed(11), WithConfig(stressConfig()), WithMDSRanks(2)), nil)

	cl := NewCluster(WithSeed(11), WithConfig(stressConfig()), WithMDSRanks(2), WithBackend(BackendReal))
	admin, err := cl.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	scrapes := 0
	scrape := func() (stop func()) {
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-quit:
					return
				default:
				}
				resp, err := http.Get("http://" + admin.Addr() + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					scrapes++
				}
			}
		}()
		return func() {
			close(quit)
			<-done
		}
	}
	realPaths := stressWorkload(t, cl, scrape)
	if scrapes == 0 {
		t.Error("no /metrics scrape succeeded during the run")
	}

	if len(simPaths) < 500 {
		t.Fatalf("sim namespace has only %d paths", len(simPaths))
	}
	if len(simPaths) != len(realPaths) {
		t.Errorf("namespace size: sim %d paths, real %d paths", len(simPaths), len(realPaths))
	}
	for i := 0; i < len(simPaths) && i < len(realPaths); i++ {
		if simPaths[i] != realPaths[i] {
			t.Fatalf("namespace diverges at %d: sim %q, real %q", i, simPaths[i], realPaths[i])
		}
	}
}

// TestBackendSmokeListWhileMutating is the shared-snapshot race test: on
// the real backend one client lists a directory in a loop while a second
// creates, renames (onto new and onto existing names) and unlinks in it.
// Listings are handed out as the rank's own snapshot slice, so under
// -race this fails if the rank ever edits a snapshot it has given away;
// and every listing, the one held from the previous round included, must
// be sorted, duplicate-free and contain the files nobody touches.
func TestBackendSmokeListWhileMutating(t *testing.T) {
	cl := NewCluster(WithSeed(3), WithConfig(stressConfig()), WithBackend(BackendReal))
	defer cl.Close()
	lister, mutator := cl.NewClient("lister"), cl.NewClient("mutator")
	const kept, rounds = 40, 400
	var dir Ino
	cl.Run(func(p Proc) {
		var err error
		if dir, err = mutator.MkdirAll(p, "/d", 0755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < kept; i++ {
			if _, err := mutator.Create(p, dir, fmt.Sprintf("keep%03d", i), 0644); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
	})
	if t.Failed() {
		return
	}

	check := func(names []string) {
		n := 0
		for i, name := range names {
			if i > 0 && names[i-1] >= name {
				t.Errorf("listing out of order or duplicated at %d: %q then %q", i, names[i-1], name)
				return
			}
			if len(name) == 7 && name[:4] == "keep" {
				n++
			}
		}
		if n != kept {
			t.Errorf("listing has %d of the %d untouched files", n, kept)
		}
	}
	done := make(chan struct{})
	listings := 0
	cl.Go("lister", func(p Proc) {
		var prev []string
		for {
			names, err := lister.ReadDir(p, dir)
			if err != nil {
				t.Errorf("readdir: %v", err)
				return
			}
			check(names)
			if prev != nil {
				check(prev)
			}
			prev = names
			listings++
			select {
			case <-done:
				if len(names) != kept+rounds/2 {
					t.Errorf("final listing has %d entries, want %d", len(names), kept+rounds/2)
				}
				return
			default:
			}
			if t.Failed() {
				return
			}
		}
	})
	cl.Go("mutator", func(p Proc) {
		defer close(done)
		for i := 0; i < rounds; i++ {
			a, b := fmt.Sprintf("a%04d", i), fmt.Sprintf("b%04d", i/2)
			if _, err := mutator.Create(p, dir, a, 0644); err != nil {
				t.Errorf("create %s: %v", a, err)
				return
			}
			// Even rounds rename onto a new name, odd rounds onto the
			// name the round before left behind.
			if err := mutator.Rename(p, dir, a, dir, b); err != nil {
				t.Errorf("rename %s -> %s: %v", a, b, err)
				return
			}
			if i%4 == 3 {
				if err := mutator.Unlink(p, dir, b); err != nil {
					t.Errorf("unlink %s: %v", b, err)
					return
				}
				if _, err := mutator.Create(p, dir, b, 0644); err != nil {
					t.Errorf("re-create %s: %v", b, err)
					return
				}
			}
		}
	})
	cl.RunAll()
	if err := cl.Runtime().LeakCheck(); err != nil {
		t.Fatal(err)
	}
	if listings < 2 {
		t.Errorf("only %d listings overlapped the mutations", listings)
	}
}
