package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"cudele"
	"cudele/internal/namespace"
	"cudele/internal/workload"
)

// This file holds the three workload shapes the evaluation is built from,
// each written once: the private-directory create storm over RPCs, the
// create storm over subtrees placed on metadata ranks, and the decoupled
// create storm. Experiments differ in the hooks they set.

// sampler is an observer task that runs beside a storm. It owns its loop —
// when the first sample is taken and whether one follows the last client —
// and stops once done reports that every client has finished.
type sampler func(sp cudele.Proc, cl *cudele.Cluster, done func() bool)

// jobConfig describes one multi-client create-heavy run: n clients each
// creating perClient files in private directories (the workload of §II
// and §V-B), optionally with journaling, an interfering client, and
// per-directory interfere-block policies.
type jobConfig struct {
	clients   int
	perClient int

	journal  bool
	dispatch int
	// segEvents overrides the journal segment size so that scaled-down
	// workloads still seal segments at a proportional rate; 0 keeps the
	// default.
	segEvents int

	jitter time.Duration // max random client start stagger

	interfereAt     float64 // seconds; 0 disables the interferer
	interfereFixed  bool    // arrive at exactly interfereAt instead of drawing the arrival
	interferePerDir int
	blockPolicy     bool // register each private dir with interfere: block

	// sampler, when non-nil, starts before the interferer and the clients
	// (Fig 3c's time series begins before the first create).
	sampler sampler
}

// jobResult reports per-client completion times and the total job time.
type jobResult struct {
	perClient []float64 // seconds, excluding start jitter
	total     float64   // seconds until every client finished
	clients   []*cudele.Client
}

// slowest returns the slowest client's time.
func (j *jobResult) slowest() float64 {
	worst := 0.0
	for _, v := range j.perClient {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// runCreateJob executes the workload as the run spec names and returns
// per-client timings. The spec's config hook is the job's to set.
func runCreateJob(opts Options, spec runSpec, jc jobConfig) (*jobResult, error) {
	spec.config = func(cfg *cudele.Config) {
		if jc.dispatch > 0 {
			cfg.DispatchSize = jc.dispatch
		}
		if jc.segEvents > 0 {
			cfg.SegmentEvents = jc.segEvents
		}
	}
	return runSession(opts, spec, func(s *session) (*jobResult, error) {
		cl := s.cl
		cl.MDS().SetStream(jc.journal)
		clients := s.clients(jc.clients)
		intruder := cl.NewClient("intruder")

		res := &jobResult{perClient: make([]float64, jc.clients), clients: clients}
		dirs := make([]namespace.Ino, jc.clients)
		var finished atomic.Int32 // tasks are goroutines on the real backend
		rng := cl.Runtime().Rand()

		creates := func() {
			s.each(clients, func(cp cudele.Proc, i int, c *cudele.Client) error {
				defer finished.Add(1)
				if jc.jitter > 0 {
					cp.Sleep(time.Duration(rng.Int63n(int64(jc.jitter))))
				}
				start := cp.Now()
				if _, _, err := workload.CreateMany(cp, c, dirs[i], jc.perClient, "f"); err != nil {
					return err
				}
				res.perClient[i] = (cp.Now() - start).Seconds()
				return nil
			})
		}
		// The interfering client creates files in every private directory
		// partway through the job (Fig 3b). Unless fixed, its arrival time
		// varies by half either way across trials — run-to-run variability
		// in when capabilities get revoked is what makes interference runs
		// noisy (paper Fig 3b's error bars).
		interfere := func() {
			if jc.interfereAt <= 0 {
				return
			}
			s.spawn("intruder", func(ip cudele.Proc) error {
				at := jc.interfereAt
				if !jc.interfereFixed {
					at *= 0.5 + rng.Float64()
				}
				ip.Sleep(time.Duration(at * 1e9))
				workload.Interfere(ip, intruder, dirs, jc.interferePerDir)
				return nil
			})
		}

		var err error
		res.total, err = s.phase("setup", func(p cudele.Proc) error {
			// Each client makes its private directory; optionally register
			// it with an interfere-block policy owned by that client
			// (Fig 6b's Cudele setup).
			for i, c := range clients {
				dir, err := c.Mkdir(p, cudele.RootIno, fmt.Sprintf("dir%d", i), 0755)
				if err != nil {
					return err
				}
				dirs[i] = dir
				if jc.blockPolicy {
					pol := &cudele.Policy{
						Consistency: cudele.ConsStrong, Durability: cudele.DurGlobal,
						AllocatedInodes: 100, Interfere: cudele.InterfereBlock,
					}
					if _, err := cl.Monitor().RegisterPolicy(p, fmt.Sprintf("/dir%d", i), pol, c.Name()); err != nil {
						return err
					}
				}
			}
			if jc.sampler == nil {
				creates()
				interfere()
				return nil
			}
			s.spawn("sampler", func(sp cudele.Proc) error {
				jc.sampler(sp, cl, func() bool { return int(finished.Load()) == len(clients) })
				return nil
			})
			interfere()
			creates()
			return nil
		})
		return res, err
	})
}

// placedStorm is the create storm over placed subtrees: client i makes
// /job<i>, the monitor pins it to rank placement[i], and the client
// creates perClient files in it over RPCs.
type placedStorm struct {
	placement []int
	perClient int

	// balancer, when non-nil, runs the heat-driven balancer beside the
	// storm; run returns it for its convergence record.
	balancer *cudele.BalancerConfig
	sampler  sampler
}

// run drives the storm to completion and returns the job seconds.
func (ps placedStorm) run(s *session) (float64, *cudele.Balancer, error) {
	cl := s.cl
	cs := s.clients(len(ps.placement))
	var finished atomic.Int32
	s.spawn("setup", func(p cudele.Proc) error {
		for i, c := range cs {
			path := fmt.Sprintf("/job%d", i)
			if _, err := c.MkdirAll(p, path, 0755); err != nil {
				return err
			}
			if err := cl.Monitor().Place(p, path, ps.placement[i]); err != nil {
				return err
			}
		}
		s.each(cs, func(cp cudele.Proc, i int, c *cudele.Client) error {
			defer finished.Add(1)
			dir, err := c.Resolve(cp, fmt.Sprintf("/job%d", i))
			if err != nil {
				return err
			}
			_, _, err = workload.CreateMany(cp, c, dir, ps.perClient, "f")
			return err
		})
		if ps.sampler != nil {
			s.spawn("heat.sampler", func(sp cudele.Proc) error {
				ps.sampler(sp, cl, func() bool { return int(finished.Load()) == len(cs) })
				return nil
			})
		}
		return nil
	})
	var bal *cudele.Balancer
	if ps.balancer != nil {
		bal = cl.StartBalancer(*ps.balancer)
	}
	total, err := s.drain()
	return total, bal, err
}

// rankRequests reads each rank's served-request count.
func rankRequests(cl *cudele.Cluster, ranks int) []uint64 {
	out := make([]uint64, ranks)
	for i := range out {
		out[i] = cl.Metadata().Rank(i).Metrics().Requests
	}
	return out
}

// rankLoads sums the heat map's cells into a dense per-rank load vector,
// so an idle rank counts as a zero rather than going missing.
func rankLoads(cl *cudele.Cluster, ranks int) []float64 {
	loads := make([]float64, ranks)
	for _, cell := range cl.Heat().Snapshot(int64(cl.Runtime().Now())) {
		if cell.Rank >= 0 && cell.Rank < ranks {
			loads[cell.Rank] += cell.Load
		}
	}
	return loads
}

// decoupledStorm is the decoupled create storm: each client decouples a
// private subtree and creates perClient files in it locally; with merge,
// each then ships its journal to the MDS with Volatile Apply (so journals
// land together, the paper's pessimistic arrival model, unless stagger
// spaces them out).
type decoupledStorm struct {
	clients   int
	perClient int
	journal   bool          // stream the MDS journal while the merges apply
	merge     bool          // weak instead of invisible: ship the journal when the creates finish
	stagger   time.Duration // client i waits i*stagger between its creates and its merge
}

// decoupledResult is one decoupled storm's timings.
type decoupledResult struct {
	clients []*cudele.Client
	total   float64   // job seconds
	done    []float64 // per client: when its last step completed (job seconds)
	latency []float64 // per client: its Volatile Apply's seconds
}

func (ds decoupledStorm) run(s *session) (decoupledResult, error) {
	cl := s.cl
	cl.MDS().SetStream(ds.journal)
	clients := s.clients(ds.clients)
	res := decoupledResult{clients: clients, done: make([]float64, ds.clients), latency: make([]float64, ds.clients)}
	var err error
	res.total, err = s.phase("setup", func(p cudele.Proc) error {
		for i, c := range clients {
			path := fmt.Sprintf("/job%d", i)
			if _, err := c.MkdirAll(p, path, 0755); err != nil {
				return err
			}
			pol := &cudele.Policy{
				Consistency: cudele.ConsInvisible, Durability: cudele.DurNone,
				AllocatedInodes: ds.perClient + 10,
			}
			if ds.merge {
				pol.Consistency = cudele.ConsWeak
			}
			if _, err := cl.DecouplePolicy(p, c, path, pol); err != nil {
				return err
			}
		}
		s.each(clients, func(cp cudele.Proc, i int, c *cudele.Client) error {
			root, _ := c.DecoupledRoot()
			if _, err := workload.CreateManyLocal(cp, c, root, ds.perClient, "f"); err != nil {
				return err
			}
			if ds.merge {
				if ds.stagger > 0 {
					cp.Sleep(time.Duration(i) * ds.stagger)
				}
				start := cp.Now()
				if _, err := c.VolatileApply(cp); err != nil {
					return err
				}
				res.latency[i] = (cp.Now() - start).Seconds()
			}
			res.done[i] = cp.Now().Seconds()
			return nil
		})
		return nil
	})
	return res, err
}
