package bench

import "fmt"

func init() {
	register("multimds", "RPC create throughput vs metadata ranks (subtree partitioning)", MultiMDS)
	markUtilization("multimds")
}

// multiMDSRanks are the cluster sizes the experiment sweeps.
var multiMDSRanks = []int{1, 2, 4}

// multiMDSOut is one run's measurements: total job seconds plus the mean
// busy fraction of the metadata ranks' CPUs over the whole run.
type multiMDSOut struct {
	total   float64
	mdsUtil float64
}

// multiMDSRun drives `clients` RPC clients, each creating perClient files
// in a private subtree pinned round-robin across `ranks` metadata ranks,
// and returns the total job seconds and mean MDS CPU utilization.
func multiMDSRun(opts Options, ranks, clients, perClient int) (multiMDSOut, error) {
	storm := placedStorm{placement: make([]int, clients), perClient: perClient}
	for i := range storm.placement {
		storm.placement[i] = i % ranks
	}
	spec := runSpec{name: fmt.Sprintf("multimds/r%d", ranks), seed: opts.Seed, ranks: ranks}
	return runSession(opts, spec, func(s *session) (multiMDSOut, error) {
		total, _, err := storm.run(s)
		// Mean CPU busy fraction across ranks: with round-robin subtree
		// placement every rank carries ~1/R of the load, so this column shows
		// the single rank saturated and the load spreading as ranks are added.
		util := 0.0
		for i := 0; i < ranks; i++ {
			util += s.cl.Metadata().Rank(i).CPU().Snapshot().Utilization
		}
		return multiMDSOut{total: total, mdsUtil: util / float64(ranks)}, err
	})
}

// MultiMDS shows the scaling path the paper names in §VI: a single MDS
// saturates under parallel RPC creates (Fig 3c), so the namespace is
// partitioned by subtree across metadata ranks. Each client works in a
// private subtree pinned round-robin, so with R ranks the per-rank load
// drops ~R-fold and aggregate create throughput rises until client count,
// not MDS CPU, is the limit.
func MultiMDS(opts Options) (*Result, error) {
	clients := 16
	perClient := opts.scaled(20_000, 200)

	r := &Result{
		ID:      "multimds",
		Title:   fmt.Sprintf("aggregate RPC create throughput, %d clients x %d creates, subtrees pinned round-robin", clients, perClient),
		Columns: []string{"mds ranks", "runtime (s)", "creates/s", "speedup", "mean MDS CPU"},
	}
	outs, err := runGrid(opts, len(multiMDSRanks), func(i int) (multiMDSOut, error) {
		return multiMDSRun(opts, multiMDSRanks[i], clients, perClient)
	})
	if err != nil {
		return nil, err
	}
	var base float64
	var rates []float64
	for ri, ranks := range multiMDSRanks {
		rate := float64(clients*perClient) / outs[ri].total
		if base == 0 {
			base = rate
		}
		rates = append(rates, rate)
		r.AddRow(fmt.Sprintf("%d", ranks), f2(outs[ri].total), f0(rate), f2x(rate/base),
			pct(outs[ri].mdsUtil))
	}
	last := len(multiMDSRanks) - 1
	r.Notef("single-MDS CephFS saturates (paper Fig 3c); subtree partitioning is the stated scaling path (paper §VI)")
	r.Notef("measured: %d ranks serve %.2fx the creates/s of 1 rank", multiMDSRanks[last], rates[last]/rates[0])
	return r, nil
}
