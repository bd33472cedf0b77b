package main

import (
	"fmt"
	"runtime"
	"time"

	"cudele"
	"cudele/internal/model"
	"cudele/internal/namespace"
)

// workload is one named input set. run executes one repetition on fresh
// clusters, checks its outputs, and returns what it measured.
type workload struct {
	name string
	why  string
	run  func(ctx *runCtx, rep int, traced bool) (*repResult, error)
}

var workloads = []workload{
	{"sim_storm", "16 simulated clients x 2 500 creates and an interferer storm one journaling MDS: sim kernel, inline transport, mds dispatch and journal streaming do the work; realrt, FileStore and loopback do none", runSimStorm},
	{"real_rpc_write", "strong-none RPC mutations, 2 clients x 20 000 calls, one client per rank: realrt hand-off, Wire.realCall, mds dispatch and namespace mutation dominate; journal, rados and sim are idle", runRPCWrite},
	{"real_rpc_read", "2 clients x 25 000 lookups, stats, resolves and listings of a prefilled 100 x 1 000-file tree: real_rpc_write's mds/namespace/transport layers used for reads, so a write gain that taxes reads shows", runRPCRead},
	{"real_decoupled", "four *-none decoupled cells, 2 clients x 15 000 local ops each: client journal append, journal codec, namespace replay/SEMerger and the mds merge, validate and converge steps; bypasses the RPC path", runDecoupled},
	{"real_io", "five durable cells (2 x 2 500 RPC creates, 4 x 2 x 5 000 local creates) and Nonvolatile Apply on a real data dir over loopback TCP: FileStore fsyncs, persistLocal, segment writes; the kernel works", runIO},
}

// workloadNames lists the workloads in run order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCtx is what every repetition of a run shares.
type runCtx struct {
	seed int64
	// reps is how many repetitions of each kind (untraced, traced) the
	// run makes; repetition indexes run from 0 to reps-1.
	reps int
	// scale multiplies the workloads' operation counts: 1 for every
	// reported run, 0.1 in bench_test.go.
	scale   float64
	hostCfg model.Config
	// outDir holds data dirs and trace files; it is inside the checkout.
	outDir string
	// plant, when non-empty, plants one violation so the self-test can
	// see the named check fail (bench_test.go only).
	plant string
}

// Planted violations (test-only): each must make exactly one check fail.
const (
	plantSkipCreate     = "skip-create"     // issue one generated create less than the expectation holds
	plantDropEvent      = "drop-event"      // drop one acknowledged event from a reopened journal
	plantPerturbVirtual = "perturb-virtual" // shift one traced repetition's virtual time
)

// scaled applies the run's scale to one of the workloads' counts.
func (c *runCtx) scaled(n int) int {
	v := int(float64(n)*c.scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// checkErr names the correctness check that failed; the self-test greps
// for the name.
func checkErr(check, format string, args ...any) error {
	return fmt.Errorf("check %s: %s", check, fmt.Sprintf(format, args...))
}

// closeCluster reaps the cluster's tasks; a workload that drained cleanly
// reaps none.
func closeCluster(cl *cudele.Cluster) error {
	if n := cl.Close(); n != 0 {
		return checkErr("reap", "Cluster.Close reaped %d task(s), want 0", n)
	}
	return nil
}

// checkStores scrubs every rank's namespace.
func checkStores(cl *cudele.Cluster) error {
	for r := 0; r < cl.Metadata().Ranks(); r++ {
		if probs := cl.Metadata().Rank(r).Store().Check(); len(probs) > 0 {
			return checkErr("store-check", "rank %d: %d problem(s), first: %s", r, len(probs), probs[0])
		}
	}
	return nil
}

// checkDir asserts the directory at path on st holds exactly want
// entries and that every name in names resolves in it.
func checkDir(st *namespace.Store, path string, want int, names []string) error {
	dir, err := st.Resolve(path)
	if err != nil {
		return checkErr("entry-count", "%s: %v", path, err)
	}
	if got := dir.NumChildren(); got != want {
		return checkErr("entry-count", "%s holds %d entries, the generated sequence leaves %d", path, got, want)
	}
	for _, n := range names {
		if _, err := st.Lookup(dir.Ino, n); err != nil {
			return checkErr("names-resolve", "%s/%s: %v", path, n, err)
		}
	}
	return nil
}

// readCounts reads the public counters of a finished cluster.
func readCounts(cl *cudele.Cluster, clients []*cudele.Client) counts {
	var c counts
	for r := 0; r < cl.Metadata().Ranks(); r++ {
		m := cl.Metadata().Rank(r).Metrics()
		c.MDSRequests += m.Requests
		c.MDSCapRevokes += m.CapRevokes
		c.MDSSegments += m.Dispatches
		c.MDSMerged += m.Merged
	}
	st := cl.Objects().Stats()
	c.RadosWrites = st.Writes
	c.RadosBytes = st.BytesWritten
	for _, cli := range clients {
		c.ClientRPCs += cli.Stats().RPCs
	}
	return c
}

// finishRep closes the repetition's books: set-up time is everything
// outside the measured windows, and the garbage of this repetition is
// collected now so the next one's window does not pay for it.
func finishRep(res *repResult, began time.Time) {
	res.sortLat()
	runtime.GC()
	res.setup = time.Since(began) - res.win.wall
}
