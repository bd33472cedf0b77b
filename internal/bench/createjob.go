package bench

import (
	"fmt"
	"time"

	"cudele"
	"cudele/internal/namespace"
	"cudele/internal/obs"
	"cudele/internal/policy"
	"cudele/internal/workload"
)

// jobConfig describes one multi-client create-heavy run: n clients each
// creating perClient files in private directories (the workload of §II
// and §V-B), optionally with journaling, an interfering client, and
// per-directory interfere-block policies.
type jobConfig struct {
	seed      int64
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
	interferePerDir int
	blockPolicy     bool // register each private dir with interfere: block

	// sink/run route this run's trace and metrics to the experiment's
	// observability sink; a nil sink means observation is off.
	sink *Sink

	// heat enables per-subtree heat accounting on the run's cluster;
	// admin, on the real backend, installs the run as the live admin
	// endpoint's scrape source for its duration.
	heat  bool
	admin *obs.Admin

	run string

	// backend selects the execution backend; the zero value is the
	// simulator, so every registered experiment is untouched. dataDir,
	// on the real backend, roots this run's fsynced object log.
	backend cudele.Backend
	dataDir string
}

// jobResult reports per-client completion times and the total job time.
type jobResult struct {
	perClient []float64 // seconds, excluding start jitter
	total     float64   // seconds until every client finished
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

// runCreateJob executes the workload and returns per-client timings.
func runCreateJob(jc jobConfig) (*jobResult, error) {
	cfg := cudele.DefaultConfig()
	if jc.dispatch > 0 {
		cfg.DispatchSize = jc.dispatch
	}
	if jc.segEvents > 0 {
		cfg.SegmentEvents = jc.segEvents
	}
	copts := []cudele.Option{cudele.WithSeed(jc.seed), cudele.WithConfig(cfg)}
	if jc.backend == cudele.BackendReal {
		copts = append(copts, cudele.WithBackend(cudele.BackendReal))
		if jc.dataDir != "" {
			copts = append(copts, cudele.WithDataDir(jc.dataDir))
		}
	}
	cl := cudele.NewCluster(copts...)
	jc.sink.start(jc.run, cl)
	if jc.heat {
		cl.EnableHeat(0)
	}
	if jc.admin != nil && jc.backend == cudele.BackendReal {
		jc.admin.SetSource(cl.AdminSource())
	}
	cl.MDS().SetStream(jc.journal)

	clients := make([]*cudele.Client, jc.clients)
	for i := range clients {
		clients[i] = cl.NewClient(fmt.Sprintf("client.%d", i))
	}
	intruder := cl.NewClient("intruder")

	res := &jobResult{perClient: make([]float64, jc.clients)}
	dirs := make([]namespace.Ino, jc.clients)
	var setupErr error

	eng := cl.Runtime()
	cl.Go("setup", func(p cudele.Proc) {
		// Each client makes its private directory; optionally register
		// it with an interfere-block policy owned by that client
		// (Fig 6b's Cudele setup).
		for i, c := range clients {
			dir, err := c.Mkdir(p, cudele.RootIno, fmt.Sprintf("dir%d", i), 0755)
			if err != nil {
				setupErr = err
				return
			}
			dirs[i] = dir
			if jc.blockPolicy {
				pol := &policy.Policy{
					Consistency: policy.ConsStrong, Durability: policy.DurGlobal,
					AllocatedInodes: 100, Interfere: policy.InterfereBlock,
				}
				if _, err := cl.Monitor().RegisterPolicy(p, fmt.Sprintf("/dir%d", i), pol, c.Name()); err != nil {
					setupErr = err
					return
				}
			}
		}

		// Spawn the per-client create loops.
		for i, c := range clients {
			i, c := i, c
			eng.Spawn(c.Name(), func(cp cudele.Proc) {
				if jc.jitter > 0 {
					cp.Sleep(time.Duration(eng.Rand().Int63n(int64(jc.jitter))))
				}
				start := cp.Now()
				if _, _, err := workload.CreateMany(cp, c, dirs[i], jc.perClient, "f"); err != nil {
					setupErr = err
					return
				}
				res.perClient[i] = (cp.Now() - start).Seconds()
			})
		}

		// The interfering client creates files in every private
		// directory partway through the job (Fig 3b). Its arrival time
		// varies by half either way across trials — run-to-run
		// variability in when capabilities get revoked is what makes
		// interference runs noisy (paper Fig 3b's error bars).
		if jc.interfereAt > 0 {
			eng.Spawn("intruder", func(ip cudele.Proc) {
				at := jc.interfereAt * (0.5 + eng.Rand().Float64())
				ip.Sleep(time.Duration(at * 1e9))
				workload.Interfere(ip, intruder, dirs, jc.interferePerDir)
			})
		}
	})
	res.total = cl.RunAll()
	if setupErr != nil {
		return nil, setupErr
	}
	jc.sink.finish(jc.run, cl)
	if err := reap(cl); err != nil {
		return nil, err
	}
	return res, nil
}
