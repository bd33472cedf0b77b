package bench

import (
	"fmt"
	"time"

	"cudele"
)

func init() {
	register("mergescale", "Concurrent journal merges: all-at-once vs staggered vs chunked-fair", MergeScale)
}

// mergeScaleClients are the concurrent-merger counts the experiment
// sweeps.
var mergeScaleClients = []int{2, 4, 8, 16}

// mergeScaleModes are the three arrival/scheduling disciplines compared.
// all-at-once is the paper's pessimistic model (every journal lands the
// moment its creates finish and merges as one job, Fig 6a); staggered is
// the hand-tuned alternative (an oracle delays each client by exactly one
// merge's service time, so jobs never overlap); chunked-fair is the
// streamed pipeline (bounded admission, windowed chunks, round-robin
// scheduler) that needs no tuning.
var mergeScaleModes = []string{"all-at-once", "staggered", "chunked-fair"}

// mergeScaleOut is one run's measurements across its clients.
type mergeScaleOut struct {
	slowest      float64 // latest merge completion (job seconds)
	meanMerge    float64 // mean per-client VolatileApply latency (s)
	doneSpread   float64 // latest minus earliest completion (s)
	peakBytes    uint64  // largest client-side transfer buffer
	backpressure uint64  // MDS backpressure replies (opens + chunks)
	waitSpread   float64 // scheduler chunk-wait fairness spread (s)
	waitJobs     int     // streamed jobs the spread covers
}

func mergeScaleRun(opts Options, n, perClient int, mode string) (mergeScaleOut, error) {
	storm := decoupledStorm{clients: n, perClient: perClient, merge: true}
	spec := runSpec{name: fmt.Sprintf("mergescale/n%d/%s", n, mode), seed: opts.Seed}
	switch mode {
	case "chunked-fair":
		spec.config = func(cfg *cudele.Config) {
			cfg.MergeChunkEvents = 256
			cfg.MergeAdmitMax = 2
		}
	case "staggered":
		// The oracle interval: one merge's setup plus its uncongested
		// apply time, so each journal lands as the previous one drains.
		cfg := cudele.DefaultConfig()
		storm.stagger = cfg.MDSMergeSetup + time.Duration(perClient)*cfg.MDSApplyTime
	}
	return runSession(opts, spec, func(s *session) (mergeScaleOut, error) {
		res, err := storm.run(s)
		if err != nil {
			return mergeScaleOut{}, err
		}
		out := mergeScaleOut{slowest: res.done[0]}
		earliest := res.done[0]
		for i, c := range res.clients {
			out.slowest = max(out.slowest, res.done[i])
			earliest = min(earliest, res.done[i])
			out.meanMerge += res.latency[i] / float64(n)
			out.peakBytes = max(out.peakBytes, c.Stats().PeakTransferBytes)
		}
		out.doneSpread = out.slowest - earliest
		out.backpressure = s.cl.MDS().Metrics().MergeBackpressure
		spread, jobs := s.cl.MDS().MergeFairness()
		out.waitSpread = time.Duration(spread).Seconds()
		out.waitJobs = jobs
		return out, nil
	})
}

// MergeScale measures what the merge scheduler buys when N decoupled
// clients Volatile Apply against one rank at once. All-at-once pays the
// full N-way congestion premium (paper Fig 6a's arrival model) on every
// event; staggering avoids it only with an oracle interval; the chunked
// pipeline caps the premium through bounded admission and keeps
// per-client transfer memory at one chunk, with round-robin keeping the
// mergers' progress even.
func MergeScale(opts Options) (*Result, error) {
	perClient := opts.scaled(10_000, 500)

	perRow := len(mergeScaleModes)
	outs, err := runGrid(opts, perRow*len(mergeScaleClients), func(i int) (mergeScaleOut, error) {
		n := mergeScaleClients[i/perRow]
		return mergeScaleRun(opts, n, perClient, mergeScaleModes[i%perRow])
	})
	if err != nil {
		return nil, err
	}

	r := &Result{
		ID:    "mergescale",
		Title: fmt.Sprintf("N concurrent mergers x %d events each, one rank: slowest-merger completion by discipline", perClient),
		Columns: []string{"clients", "mode", "slowest done (s)", "mean merge (s)",
			"done spread (s)", "peak buf (KB)", "backpressure", "wait spread (ms)"},
	}
	type pair struct{ oneshot, chunked float64 }
	byN := map[int]pair{}
	for ni, n := range mergeScaleClients {
		for mi, mode := range mergeScaleModes {
			o := outs[ni*perRow+mi]
			ws := "-"
			if o.waitJobs > 0 {
				ws = f2(o.waitSpread * 1e3)
			}
			r.AddRow(fmt.Sprintf("%d", n), mode, f2(o.slowest), f2(o.meanMerge),
				f2(o.doneSpread), f1(float64(o.peakBytes)/1e3),
				fmt.Sprintf("%d", o.backpressure), ws)
			switch mode {
			case "all-at-once":
				byN[n] = pair{oneshot: o.slowest, chunked: byN[n].chunked}
			case "chunked-fair":
				byN[n] = pair{oneshot: byN[n].oneshot, chunked: o.slowest}
			}
		}
	}
	last := mergeScaleClients[len(mergeScaleClients)-1]
	r.Notef("all-at-once prices every event at the N-way congestion premium; bounded admission (2 jobs) caps it, so chunked-fair finishes its slowest merger %.1f%% sooner at %d clients (%.2f s vs %.2f s) without the oracle interval staggering needs",
		(1-byN[last].chunked/byN[last].oneshot)*100, last, byN[last].chunked, byN[last].oneshot)
	r.Notef("peak client transfer memory: whole journal (%.1f KB) one-shot vs one chunk (%.1f KB) streamed",
		float64(perClient)*2.5, 256*2.5)
	return r, nil
}
