package bench

import (
	"fmt"
	"time"

	"cudele"
	"cudele/internal/runtime"
)

func init() {
	register("fig6a", "Parallel creates: decoupled namespaces vs RPCs (Fig 6a)", Fig6a)
	register("fig6b", "Blocking interfering clients with the Cudele API (Fig 6b)", Fig6b)
	register("fig6c", "Namespace-sync interval vs overhead (Fig 6c)", Fig6c)
}

// Fig6a compares three subtree semantics for the parallel-create
// workload: strong/global over RPCs, decoupled create+merge
// (weak/local), and decoupled create only (invisible/local). The y-value
// is total-job throughput normalized to 1 client using RPCs.
func Fig6a(opts Options) (*Result, error) {
	perClient := opts.scaled(100_000, 200)
	segEvents := opts.scaled(1024, 64)

	// Grid: per client count the three semantics (rpcs, create+merge,
	// create) in row-major order. Run 0, 1 client over RPCs, is also the
	// baseline: its slowest client sets the normalizing rate.
	const perRow = 3
	type run struct{ total, slowest float64 }
	runs, err := runGrid(opts, "fig6a", perRow*len(clientCounts), func(i int, spec runSpec) (run, error) {
		n := clientCounts[i/perRow]
		if i%perRow == 0 {
			rpc, err := runCreateJob(opts, spec, jobConfig{clients: n, perClient: perClient,
				journal: true, dispatch: 40, segEvents: segEvents})
			if err != nil {
				return run{}, err
			}
			return run{rpc.total, rpc.slowest()}, nil
		}
		// Journals land the moment the creates finish: the paper's
		// pessimistic arrival model.
		storm := decoupledStorm{clients: n, perClient: perClient, journal: true, merge: i%perRow == 1}
		res, err := runSession(opts, spec, storm.run)
		return run{total: res.total}, err
	})
	if err != nil {
		return nil, err
	}
	baseRate := float64(perClient) / runs[0].slowest

	r := &Result{
		ID:      "fig6a",
		Title:   fmt.Sprintf("total-job throughput speedup over 1 RPC client (%.0f creates/s), %d creates/client", baseRate, perClient),
		Columns: []string{"clients", "rpcs", "decoupled: create+merge", "decoupled: create"},
	}
	var rpcsAt, mergeAt, createAt []float64
	for ni, n := range clientCounts {
		row := runs[ni*perRow : (ni+1)*perRow]
		rpcSpeed := float64(n*perClient) / row[0].total / baseRate
		mergeSpeed := float64(n*perClient) / row[1].total / baseRate
		createSpeed := float64(n*perClient) / row[2].total / baseRate

		rpcsAt = append(rpcsAt, rpcSpeed)
		mergeAt = append(mergeAt, mergeSpeed)
		createAt = append(createAt, createSpeed)
		r.AddRow(fmt.Sprintf("%d", n), f2x(rpcSpeed), f2x(mergeSpeed), f2x(createSpeed))
	}
	last := len(clientCounts) - 1
	r.Notef("paper at 20 clients: RPCs flattens ~4.5x, create+merge ~15x (3.37x over RPCs), create scales linearly (91.7x over RPCs)")
	r.Notef("measured at %d clients: RPCs %.1fx, create+merge %.1fx (%.2fx over RPCs), create %.1fx (%.1fx over RPCs)",
		clientCounts[last], rpcsAt[last], mergeAt[last], mergeAt[last]/rpcsAt[last],
		createAt[last], createAt[last]/rpcsAt[last])
	return r, nil
}

// Fig6b adds the interfere-block policy to the Fig 3b experiment: one
// subtree allows interference, the other returns -EBUSY, isolating the
// owners' performance. It is Fig 3b's grid with the block column.
func Fig6b(opts Options) (*Result, error) {
	r, slope, sd, err := fig3bTable(opts, "fig6b", true)
	if err != nil {
		return nil, err
	}
	r.Notef("paper: no interference 1.42x/client sd 0.06; interference 1.67x/client sd 0.44; block 1.34x/client sd 0.09 (block ~ no interference, with visible reject overhead at small clusters)")
	r.Notef("measured per-client slowdown (sd): no interference %.2fx (%.2f); interference %.2fx (%.2f); block %.2fx (%.2f)",
		slope[0], sd[0], slope[1], sd[1], slope[2], sd[2])
	return r, nil
}

// Fig6c sweeps the namespace-sync interval for a single decoupled client
// writing updates: syncing too often pays the fork pause repeatedly;
// syncing too rarely writes huge journals whose final drain lands on the
// critical path. The paper's optimum is a 10-second interval at ~2%
// overhead.
func Fig6c(opts Options) (*Result, error) {
	n := opts.scaled(1_000_000, 5_000)
	intervals := []float64{1, 2, 5, 10, 15, 20, 25}

	cfgBase := cudele.DefaultConfig()
	tBase := float64(n) * cfgBase.ClientAppendTime.Seconds()

	r := &Result{
		ID:      "fig6c",
		Title:   fmt.Sprintf("overhead of namespace sync for %d updates (base runtime %.1f s)", n, tBase),
		Columns: []string{"sync interval (s)", "runtime (s)", "overhead", "pauses", "avg sync (MB)"},
	}
	type syncRun struct {
		total   float64
		pauses  int
		shipped int
	}
	syncRuns, err := runGrid(opts, "fig6c", len(intervals), func(gi int, spec runSpec) (syncRun, error) {
		step := time.Duration(intervals[gi] * 1e9)
		return runSession(opts, spec, func(s *session) (syncRun, error) {
			c := s.clients(1)[0]
			var sr syncRun
			_, err := s.phase("main", func(p cudele.Proc) error {
				if _, err := c.MkdirAll(p, "/exp", 0755); err != nil {
					return err
				}
				pol := &cudele.Policy{
					Consistency: cudele.ConsInvisible, Durability: cudele.DurLocal,
					AllocatedInodes: n + 10,
				}
				if _, err := s.cl.DecouplePolicy(p, c, "/exp", pol); err != nil {
					return err
				}
				root, _ := c.DecoupledRoot()
				lastSync := p.Now()
				for i := 0; i < n; i++ {
					if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%07d", i), 0644); err != nil {
						return err
					}
					if p.Now()-lastSync >= runtime.Time(step) {
						_, k, err := c.SyncNow(p)
						if err != nil {
							return err
						}
						sr.shipped += k
						lastSync = p.Now()
					}
				}
				// Final sync and drain are on the critical path.
				_, k, err := c.SyncNow(p)
				if err != nil {
					return err
				}
				sr.shipped += k
				if err := c.WaitSyncDrain(p); err != nil {
					return err
				}
				// The job is done once the final drain lands; the MDS
				// keeps applying partial updates in the background.
				sr.total = p.Now().Seconds()
				sr.pauses, _ = c.SyncStats()
				return nil
			})
			return sr, err
		})
	})
	if err != nil {
		return nil, err
	}
	var overheads []float64
	for gi, interval := range intervals {
		sr := syncRuns[gi]
		overhead := (sr.total - tBase) / tBase
		overheads = append(overheads, overhead)
		avgMB := 0.0
		if sr.pauses > 0 {
			avgMB = float64(sr.shipped) * 2500 / float64(sr.pauses) / 1e6
		}
		r.AddRow(f0(interval), f2(sr.total), pct(overhead), fmt.Sprintf("%d", sr.pauses), f1(avgMB))
	}
	// Locate the measured optimum.
	best := 0
	for i := range overheads {
		if overheads[i] < overheads[best] {
			best = i
		}
	}
	r.Notef("paper: ~9%% overhead at 1 s, optimum 2%% at 10 s, rising again at 25 s (3-4 pauses of ~678 MB journals)")
	r.Notef("measured: optimum at %.0f s with %.1f%% overhead; 1 s costs %.1f%%; %.0f s costs %.1f%%",
		intervals[best], overheads[best]*100, overheads[0]*100,
		intervals[len(intervals)-1], overheads[len(overheads)-1]*100)
	return r, nil
}
