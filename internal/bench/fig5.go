package bench

import (
	"fmt"

	"cudele"
	"cudele/internal/workload"
)

func init() {
	register("fig5", "Per-mechanism overhead for 100K creates (Fig 5)", Fig5)
}

// withDecoupledJournal runs fn on a cluster with one decoupled client that
// has already appended n creates to its journal; appendSecs is what the
// appends took.
func withDecoupledJournal(opts Options, spec runSpec, n int, fn func(c *cudele.Client, p cudele.Proc, appendSecs float64) error) error {
	_, err := runSession(opts, spec, func(s *session) (float64, error) {
		c := s.clients(1)[0]
		return s.phase("main", func(p cudele.Proc) error {
			if _, err := c.MkdirAll(p, "/job", 0755); err != nil {
				return err
			}
			// Seed the object store so Nonvolatile Apply has directory
			// objects to read.
			if err := s.cl.MDS().SaveStore(p); err != nil {
				return err
			}
			pol := &cudele.Policy{
				Consistency: cudele.ConsInvisible, Durability: cudele.DurNone,
				AllocatedInodes: n + 10,
			}
			if _, err := s.cl.DecouplePolicy(p, c, "/job", pol); err != nil {
				return err
			}
			root, _ := c.DecoupledRoot()
			start := p.Now()
			if _, err := workload.CreateManyLocal(p, c, root, n, "f"); err != nil {
				return err
			}
			return fn(c, p, (p.Now() - start).Seconds())
		})
	})
	return err
}

// fig5Times holds the timings one grid run produces; unset fields stay 0.
type fig5Times struct {
	append_, volatile, local, global, nonvol, rpc float64
}

// Fig5 measures the time each mechanism needs to process n create events,
// normalized to Append Client Journal (~11K creates/s), and the
// real-world compositions on the right of the paper's figure. The four
// independent simulations (decoupled persists, destructive apply, RPC
// creates with and without journaling) run as a grid.
func Fig5(opts Options) (*Result, error) {
	n := opts.scaled(100_000, 500)
	segEvents := opts.scaled(1024, 64)

	parts, err := runGrid(opts, "fig5", 4, func(i int, run runSpec) (fig5Times, error) {
		var t fig5Times
		switch i {
		case 0: // non-destructive persists, then volatile apply
			err := withDecoupledJournal(opts, run, n, func(c *cudele.Client, p cudele.Proc, appendSecs float64) error {
				t.append_ = appendSecs
				start := p.Now()
				if err := c.LocalPersist(p); err != nil {
					return err
				}
				t.local = (p.Now() - start).Seconds()
				start = p.Now()
				if err := c.GlobalPersist(p); err != nil {
					return err
				}
				t.global = (p.Now() - start).Seconds()
				start = p.Now()
				if _, _, err := c.Merge(p); err != nil {
					return err
				}
				t.volatile = (p.Now() - start).Seconds()
				return nil
			})
			return t, err
		case 1: // destructive nonvolatile apply on its own journal
			err := withDecoupledJournal(opts, run, n, func(c *cudele.Client, p cudele.Proc, _ float64) error {
				start := p.Now()
				if _, err := c.NonvolatileApply(p); err != nil {
					return err
				}
				t.nonvol = (p.Now() - start).Seconds()
				return nil
			})
			return t, err
		default: // n RPC creates, journaling off (2) and on (3)
			res, err := runCreateJob(opts, run,
				jobConfig{clients: 1, perClient: n, journal: i == 3, dispatch: 40, segEvents: segEvents})
			if err != nil {
				return t, err
			}
			t.rpc = res.slowest()
			return t, nil
		}
	})
	if err != nil {
		return nil, err
	}
	tAppend, tLocal, tGlobal, tVolatile := parts[0].append_, parts[0].local, parts[0].global, parts[0].volatile
	tNonvol := parts[1].nonvol
	tRPC := parts[2].rpc
	tRPCJournal := parts[3].rpc
	tStream := tRPCJournal - tRPC

	r := &Result{
		ID:      "fig5",
		Title:   fmt.Sprintf("time to process %d create events per mechanism, normalized to append client journal (%.0f creates/s)", n, float64(n)/tAppend),
		Columns: []string{"group", "mechanism", "time (s)", "normalized"},
	}
	norm := func(t float64) string { return f2x(t / tAppend) }
	r.AddRow("consistency", "rpcs", f2(tRPC), norm(tRPC))
	r.AddRow("consistency", "volatile_apply", f2(tVolatile), norm(tVolatile))
	r.AddRow("consistency", "nonvolatile_apply", f2(tNonvol), norm(tNonvol))
	r.AddRow("durability", "stream (journal on - off)", f2(tStream), norm(tStream))
	r.AddRow("durability", "local_persist", f2(tLocal), norm(tLocal))
	r.AddRow("durability", "global_persist", f2(tGlobal), norm(tGlobal))

	// Real-world compositions (the right-hand graph): times compose by
	// running the mechanisms back to back.
	compose := map[string][]float64{
		"POSIX (rpcs+stream)":                         {tRPCJournal},
		"BatchFS (append+local+volatile)":             {tAppend, tLocal, tVolatile},
		"DeltaFS (append+local)":                      {tAppend, tLocal},
		"RAMDisk (append+volatile)":                   {tAppend, tVolatile},
		"Cudele weak/global (append+global+volatile)": {tAppend, tGlobal, tVolatile},
	}
	for _, name := range []string{
		"POSIX (rpcs+stream)", "BatchFS (append+local+volatile)",
		"DeltaFS (append+local)", "RAMDisk (append+volatile)",
		"Cudele weak/global (append+global+volatile)",
	} {
		total := 0.0
		for _, t := range compose[name] {
			total += t
		}
		r.AddRow("systems", name, f2(total), norm(total))
	}

	r.Notef("paper: RPCs 17.9x (19.9x slower than Volatile Apply), Nonvolatile Apply 78x, Stream 2.4x, Global Persist only 0.2x slower than Local Persist; ~2.5 KB storage per journal update")
	r.Notef("measured: rpcs %.1fx, rpcs/volatile ratio %.1fx, nonvolatile %.1fx, stream %.1fx, local %.2fx, global %.2fx",
		tRPC/tAppend, tRPC/tVolatile, tNonvol/tAppend, tStream/tAppend, tLocal/tAppend, tGlobal/tAppend)
	r.Notef("journal footprint: %d updates x 2500 B = %.2f MB (paper: 1M updates ~ 2.38 GB)",
		n, float64(n)*2500/1e6)
	return r, nil
}
