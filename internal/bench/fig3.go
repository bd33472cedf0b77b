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
// the baseline plus clientCounts x configs in row-major order — runs on
// the worker pool.
func Fig3a(opts Options) (*Result, error) {
	perClient := opts.scaled(100_000, 200)
	segEvents := opts.scaled(1024, 64)

	configs := fig3aConfigs
	type spec struct {
		clients int
		cfg     fig3aConfig
	}
	specs := []spec{{clients: 1}} // index 0: 1-client journal-off baseline
	for _, n := range clientCounts {
		for _, cfg := range configs {
			specs = append(specs, spec{clients: n, cfg: cfg})
		}
	}
	times, err := runGrid(opts, len(specs), func(i int) (float64, error) {
		sp := specs[i]
		jc := jobConfig{clients: sp.clients, perClient: perClient}
		if i > 0 {
			jc.journal = sp.cfg.journal
			jc.dispatch = sp.cfg.dispatch
			jc.segEvents = segEvents
		}
		res, err := runCreateJob(opts, runSpec{name: fmt.Sprintf("fig3a/run%03d", i), seed: opts.Seed}, jc)
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
			s := stats.Slowdown(times[1+ni*len(configs)+ci], baseline)
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

// fig3bConfig is the paper's Fig 3b setup: journal on (dispatch 40),
// strong consistency, an interferer creating files in every private
// directory at t=interfereAt. The grid is the baseline plus
// clientCounts x 3 trials x {no-interference, interference} in row-major
// order.
func fig3bRuns(opts Options, blockPolicy bool) (noInterf, interf map[int][]float64, baseline float64, err error) {
	perClient := opts.scaled(100_000, 200)
	perDir := opts.scaled(1000, 10)
	segEvents := opts.scaled(1024, 64)
	interfereAt := 0.15 * float64(perClient) / 549.0

	type spec struct {
		clients   int
		trial     int
		interfere bool
	}
	specs := []spec{{clients: 1}} // index 0: isolated 1-client baseline
	for _, n := range clientCounts {
		for trial := 0; trial < 3; trial++ {
			specs = append(specs, spec{clients: n, trial: trial, interfere: false})
			specs = append(specs, spec{clients: n, trial: trial, interfere: true})
		}
	}
	id := "fig3b"
	if blockPolicy {
		id = "fig6b"
	}
	times, err := runGrid(opts, len(specs), func(i int) (float64, error) {
		sp := specs[i]
		jc := jobConfig{
			clients: sp.clients, perClient: perClient,
			journal: true, dispatch: 40, segEvents: segEvents,
		}
		if i > 0 {
			jc.jitter = time.Second
		}
		if sp.interfere {
			jc.interfereAt = interfereAt
			jc.interferePerDir = perDir
			jc.blockPolicy = blockPolicy
		}
		res, err := runCreateJob(opts, runSpec{
			name: fmt.Sprintf("%s/run%03d", id, i), seed: opts.Seed + int64(sp.trial)*101,
		}, jc)
		if err != nil {
			return 0, err
		}
		return res.slowest(), nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	baseline = times[0]

	noInterf = make(map[int][]float64)
	interf = make(map[int][]float64)
	i := 1
	for _, n := range clientCounts {
		for trial := 0; trial < 3; trial++ {
			noInterf[n] = append(noInterf[n], stats.Slowdown(times[i], baseline))
			interf[n] = append(interf[n], stats.Slowdown(times[i+1], baseline))
			i += 2
		}
	}
	return noInterf, interf, baseline, nil
}

// Fig3b reports the slowdown of the slowest client with and without an
// interfering client, over three trials, normalized to 1 client in
// isolation (~513-549 creates/s with journaling on).
func Fig3b(opts Options) (*Result, error) {
	noInterf, interf, baseline, err := fig3bRuns(opts, false)
	if err != nil {
		return nil, err
	}
	perClient := opts.scaled(100_000, 200)
	r := &Result{
		ID:      "fig3b",
		Title:   fmt.Sprintf("slowdown of slowest client (3 trials), normalized to 1 isolated client (%.0f creates/s)", float64(perClient)/baseline),
		Columns: []string{"clients", "no interference", "sd", "interference", "sd"},
	}
	var slopeNo, slopeIn, sdNo, sdIn []float64
	for _, n := range clientCounts {
		a, b := noInterf[n], interf[n]
		r.AddRow(fmt.Sprintf("%d", n),
			f2x(stats.Mean(a)), f2(stats.StdDev(a)),
			f2x(stats.Mean(b)), f2(stats.StdDev(b)))
		slopeNo = append(slopeNo, stats.Mean(a)/float64(n))
		slopeIn = append(slopeIn, stats.Mean(b)/float64(n))
		sdNo = append(sdNo, stats.StdDev(a))
		sdIn = append(sdIn, stats.StdDev(b))
	}
	r.Notef("paper: interference raises the per-client slowdown (1.67x vs 1.42x) and variability (sd 0.44 vs 0.06); the MDS handles at most ~18 clients of this workload")
	r.Notef("measured: per-client slowdown %.2fx (no interference) vs %.2fx (interference); mean sd %.2f vs %.2f",
		stats.Mean(slopeNo), stats.Mean(slopeIn), stats.Mean(sdNo), stats.Mean(sdIn))
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

	runTraced := func(run int, interfere bool) (*fig3cSampled, error) {
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
		if interfere {
			jc.interfereAt = interfereAt
			jc.interfereFixed = true
			jc.interferePerDir = perDir
		}
		_, err := runCreateJob(opts, runSpec{name: fmt.Sprintf("fig3c/run%03d", run), seed: opts.Seed}, jc)
		return out, err
	}

	traces, err := runGrid(opts, 2, func(i int) (*fig3cSampled, error) {
		return runTraced(i, i == 1)
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
