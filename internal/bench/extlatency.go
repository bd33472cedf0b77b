package bench

import (
	"fmt"
	"time"

	"cudele/internal/stats"
)

func init() {
	register("ext-latency", "EXTENSION: per-op create latency under interference and blocking", ExtLatency)
}

// ExtLatency is not a paper figure: it extends Fig 6b with the per-RPC
// latency distribution the paper's throughput plots imply. Owners' create
// latency is measured (p50/p99/max) in three regimes: isolated,
// interfering client allowed, interfering client blocked with -EBUSY.
// Blocking should restore near-isolated tail latency.
func ExtLatency(opts Options) (*Result, error) {
	perClient := opts.scaled(20_000, 500)
	perDir := opts.scaled(1000, 20)
	nClients := 6

	regimes := []struct{ interfere, block bool }{
		{false, false}, {true, false}, {true, true},
	}
	hists, err := runGrid(opts, "ext-latency", len(regimes), func(i int, run runSpec) (*stats.Histogram, error) {
		jc := jobConfig{clients: nClients, perClient: perClient, journal: true, blockPolicy: regimes[i].block}
		if regimes[i].interfere {
			jc.interfereAt = 2 // seconds
			jc.interfereFixed = true
			jc.interferePerDir = perDir
		}
		res, err := runCreateJob(opts, run, jc)
		if err != nil {
			return nil, err
		}
		merged := &stats.Histogram{}
		for _, c := range res.clients {
			merged.Merge(c.CreateLatency())
		}
		return merged, nil
	})
	if err != nil {
		return nil, err
	}
	isolated, allowed, blocked := hists[0], hists[1], hists[2]

	r := &Result{
		ID:      "ext-latency",
		Title:   fmt.Sprintf("owner RPC latency, %d clients x %d creates (extension, not a paper figure)", nClients, perClient),
		Columns: []string{"regime", "creates", "mean", "p50", "p99", "max"},
	}
	row := func(name string, h *stats.Histogram) {
		r.AddRow(name, fmt.Sprintf("%d", h.Count()),
			h.Mean().Round(time.Microsecond).String(),
			h.Quantile(0.5).Round(time.Microsecond).String(),
			h.Quantile(0.99).Round(time.Microsecond).String(),
			h.Max().Round(time.Microsecond).String())
	}
	row("isolated", isolated)
	row("interference (allow)", allowed)
	row("interference (block)", blocked)
	r.Notef("extension of Fig 6b: blocking interferers should restore near-isolated owner latency; with allow, owners pay an extra lookup RPC per create after revocation")
	r.Notef("measured p99: isolated %v, allow %v, block %v",
		isolated.Quantile(0.99).Round(time.Microsecond),
		allowed.Quantile(0.99).Round(time.Microsecond),
		blocked.Quantile(0.99).Round(time.Microsecond))
	return r, nil
}
