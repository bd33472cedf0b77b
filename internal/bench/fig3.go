package bench

import (
	"fmt"
	"time"

	"cudele"
	"cudele/internal/mds"
	"cudele/internal/stats"
)

func init() {
	register("fig3a", "Journal dispatch-size slowdown vs. clients (Fig 3a)", Fig3a)
	register("fig3b", "Interference slowdown and variability vs. clients (Fig 3b)", Fig3b)
	register("fig3c", "Interference turns local lookups into lookup RPCs (Fig 3c)", Fig3c)
}

// clientCounts is the paper's x-axis for the scaling figures.
var clientCounts = []int{1, 2, 5, 10, 15, 20}

// fig3aConfig is one journal configuration of Fig 3a.
type fig3aConfig struct {
	label    string
	journal  bool
	dispatch int
}

// fig3aConfigs are Fig 3a's columns: journaling off and dispatch sizes 1,
// 10 and 30 segments, plus the paper's "realistic" 40.
var fig3aConfigs = []fig3aConfig{
	{"no journal", false, 0},
	{"1 segment", true, 1},
	{"10 segments", true, 10},
	{"30 segments", true, 30},
	{"40 segments", true, 40},
}

// Fig3a scales parallel creates under the fig3aConfigs journal
// configurations. The y-value is the slowest client's slowdown,
// normalized to 1 client with journaling off (~654 creates/s). The grid —
// clientCounts x configs in row-major order, so run 0, 1 client with no
// journal, is the baseline — runs on the worker pool.
func Fig3a(opts Options) (*Result, error) {
	perClient := opts.scaled(100_000, 200)
	segEvents := opts.scaled(1024, 64)

	configs := fig3aConfigs
	type spec struct {
		clients int
		cfg     fig3aConfig
	}
	var specs []spec
	for _, n := range clientCounts {
		for _, cfg := range configs {
			specs = append(specs, spec{clients: n, cfg: cfg})
		}
	}
	times, err := runGrid(opts, "fig3a", len(specs), func(i int, run runSpec) (float64, error) {
		sp := specs[i]
		res, err := runCreateJob(opts, run, jobConfig{
			clients: sp.clients, perClient: perClient,
			journal: sp.cfg.journal, dispatch: sp.cfg.dispatch, segEvents: segEvents,
		})
		if err != nil {
			return 0, err
		}
		return res.slowest(), nil
	})
	if err != nil {
		return nil, err
	}
	baseline := times[0]

	r := &Result{
		ID:    "fig3a",
		Title: fmt.Sprintf("slowdown of slowest client, %d creates/client, normalized to 1 client journal-off (%.0f creates/s)", perClient, float64(perClient)/baseline),
		Columns: []string{"clients", "no journal", "1 segment", "10 segments",
			"30 segments", "40 segments"},
	}
	slow := make(map[string][]float64)
	for ni, n := range clientCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for ci, cfg := range configs {
			s := stats.Slowdown(times[ni*len(configs)+ci], baseline)
			slow[cfg.label] = append(slow[cfg.label], s)
			row = append(row, f2x(s))
		}
		r.AddRow(row...)
	}
	last := len(clientCounts) - 1
	r.Notef("paper: larger dispatch sizes degrade performance most under load; the no-journal slowdown grows ~0.3x per concurrent client (single-MDS peak ~3000 op/s)")
	r.Notef("measured at 20 clients: no-journal %.1fx, 1 segment %.1fx, 30 segments %.1fx",
		slow["no journal"][last], slow["1 segment"][last], slow["30 segments"][last])
	perClientSlope := (slow["no journal"][last] - 1) / float64(clientCounts[last]-1)
	r.Notef("measured no-journal slowdown per concurrent client: %.2fx (paper ~0.3x)", perClientSlope)
	return r, nil
}

// fig3bColumns name the interference grid's columns in grid order; Fig 3b
// reads the first two, Fig 6b all three.
var fig3bColumns = []string{"no interference", "interference", "block interference"}

// fig3bTable runs the interference grid of Fig 3b (§V-B) and renders its
// table, which Fig 6b extends by the block column: journal on (dispatch
// 40), strong consistency, and an interferer creating files in every
// private directory at t=interfereAt. Run 0 is the isolated 1-client
// baseline; then, per client count and trial, come the no-interference
// run, the interference run and, with block, the interference run on
// private directories registered interfere: block. Each row is a client
// count's mean slowdown and sd over the trials per column; slope and sd
// return each column's mean per-client slowdown and mean sd over the
// client counts, for the figures' notes.
func fig3bTable(opts Options, id string, block bool) (r *Result, slope, sd []float64, err error) {
	perClient := opts.scaled(100_000, 200)
	perDir := opts.scaled(1000, 10)
	segEvents := opts.scaled(1024, 64)
	interfereAt := 0.15 * float64(perClient) / 549.0

	cols := fig3bColumns[:2]
	if block {
		cols = fig3bColumns
	}
	type spec struct{ clients, trial, col int }
	specs := []spec{{clients: 1}} // index 0: isolated 1-client baseline
	for _, n := range clientCounts {
		for trial := 0; trial < 3; trial++ {
			for col := range cols {
				specs = append(specs, spec{clients: n, trial: trial, col: col})
			}
		}
	}
	times, err := runGrid(opts, id, len(specs), func(i int, run runSpec) (float64, error) {
		sp := specs[i]
		jc := jobConfig{
			clients: sp.clients, perClient: perClient,
			journal: true, dispatch: 40, segEvents: segEvents,
		}
		if i > 0 {
			jc.jitter = time.Second
		}
		if sp.col > 0 {
			jc.interfereAt = interfereAt
			jc.interferePerDir = perDir
			jc.blockPolicy = sp.col == 2
		}
		run.seed += int64(sp.trial) * 101
		res, err := runCreateJob(opts, run, jc)
		if err != nil {
			return 0, err
		}
		return res.slowest(), nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	baseline := times[0]
	slowdowns := make([]map[int][]float64, len(cols)) // per column, per client count: the trials
	for col := range slowdowns {
		slowdowns[col] = make(map[int][]float64)
	}
	for i, sp := range specs[1:] {
		slowdowns[sp.col][sp.clients] = append(slowdowns[sp.col][sp.clients], stats.Slowdown(times[1+i], baseline))
	}

	r = &Result{
		ID:      id,
		Title:   fmt.Sprintf("slowdown of slowest client (3 trials), normalized to 1 isolated client (%.0f creates/s)", float64(perClient)/baseline),
		Columns: []string{"clients"},
	}
	for _, name := range cols {
		r.Columns = append(r.Columns, name, "sd")
	}
	for _, n := range clientCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range slowdowns {
			row = append(row, f2x(stats.Mean(s[n])), f2(stats.StdDev(s[n])))
		}
		r.AddRow(row...)
	}
	for _, s := range slowdowns {
		var slopes, sds []float64
		for _, n := range clientCounts {
			slopes = append(slopes, stats.Mean(s[n])/float64(n))
			sds = append(sds, stats.StdDev(s[n]))
		}
		slope = append(slope, stats.Mean(slopes))
		sd = append(sd, stats.Mean(sds))
	}
	return r, slope, sd, nil
}

// Fig3b reports the slowdown of the slowest client with and without an
// interfering client, over three trials, normalized to 1 client in
// isolation (~513-549 creates/s with journaling on).
func Fig3b(opts Options) (*Result, error) {
	r, slope, sd, err := fig3bTable(opts, "fig3b", false)
	if err != nil {
		return nil, err
	}
	r.Notef("paper: interference raises the per-client slowdown (1.67x vs 1.42x) and variability (sd 0.44 vs 0.06); the MDS handles at most ~18 clients of this workload")
	r.Notef("measured: per-client slowdown %.2fx (no interference) vs %.2fx (interference); mean sd %.2f vs %.2f",
		slope[0], slope[1], sd[0], sd[1])
	return r, nil
}

// fig3cSampled is one traced run's time series.
type fig3cSampled struct {
	requests *stats.Series
	lookups  *stats.Series
}

// Fig3c traces the cause of the interference slowdown: once a second
// client touches the directories, capabilities are revoked and clients
// must send lookup() RPCs to the MDS before every create. The rows are a
// time series of MDS request and lookup-RPC rates for an interference run
// and a no-interference run (a 2-run grid).
func Fig3c(opts Options) (*Result, error) {
	perClient := opts.scaled(100_000, 500)
	perDir := opts.scaled(1000, 10)
	nClients := 4
	interfereAt := 0.15 * float64(perClient) / 549.0
	sampleEvery := interfereAt / 4.0

	traces, err := runGrid(opts, "fig3c", 2, func(i int, run runSpec) (*fig3cSampled, error) {
		out := &fig3cSampled{requests: &stats.Series{}, lookups: &stats.Series{}}
		jc := jobConfig{
			clients: nClients, perClient: perClient,
			journal: true, dispatch: 40, segEvents: opts.scaled(1024, 64),
			sampler: func(sp cudele.Proc, cl *cudele.Cluster, done func() bool) {
				for !done() {
					m := cl.MDS().Metrics()
					out.requests.Add(sp.Now().Seconds(), float64(m.Requests))
					out.lookups.Add(sp.Now().Seconds(), float64(m.ByOp[mds.OpLookup]))
					sp.Sleep(time.Duration(sampleEvery * 1e9))
				}
			},
		}
		if i == 1 {
			jc.interfereAt = interfereAt
			jc.interfereFixed = true
			jc.interferePerDir = perDir
		}
		_, err := runCreateJob(opts, run, jc)
		return out, err
	})
	if err != nil {
		return nil, err
	}
	plain, noisy := traces[0], traces[1]

	r := &Result{
		ID:    "fig3c",
		Title: fmt.Sprintf("MDS load over time, %d clients x %d creates; interferer at t=%.0fs", nClients, perClient, interfereAt),
		Columns: []string{"t (s)", "reqs/s (no interf)", "lookups/s (no interf)",
			"reqs/s (interf)", "lookups/s (interf)"},
	}
	pr, pl := plain.requests.Rates(), plain.lookups.Rates()
	nr, nl := noisy.requests.Rates(), noisy.lookups.Rates()
	rows := pr.Len()
	if nr.Len() < rows {
		rows = nr.Len()
	}
	for i := 0; i < rows; i++ {
		r.AddRow(f1(pr.T[i]), f0(pr.V[i]), f0(pl.V[i]), f0(nr.V[i]), f0(nl.V[i]))
	}
	// Summaries before/after the interferer arrives.
	afterLookups := func(s *stats.Series) float64 {
		var after []float64
		for i := range s.T {
			if s.T[i] > interfereAt+sampleEvery {
				after = append(after, s.V[i])
			}
		}
		if len(after) == 0 {
			return 0
		}
		return stats.Mean(after)
	}
	r.Notef("paper: after interference, the directory inode leaves read-caching and clients send lookup()s to the MDS; extra requests raise MDS throughput while client performance suffers")
	r.Notef("measured lookup RPCs/s after interferer: %.0f (interference) vs %.0f (no interference)",
		afterLookups(nl), afterLookups(pl))
	return r, nil
}
