package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"cudele"
)

// This file is the run harness. Every cluster any experiment builds is
// built, observed, driven and reaped here, so an observability mechanism
// or a backend is wired once and an experiment cannot forget it.

// runSpec is what one run asks of the harness beyond the experiment's
// Options.
type runSpec struct {
	// name registers the run with the sink ("fig3a/run007"); Options.run
	// sets it and the seed.
	name string
	seed int64

	// config, when non-nil, edits the default cost model.
	config func(*cudele.Config)
	ranks  int // metadata ranks; 0 means the paper's single MDS

	backend cudele.Backend // the zero value is the simulator

	// halfLife, when positive, turns heat accounting on at the half-life
	// the experiment reads heat at.
	halfLife time.Duration
}

// session is one live cluster between build and reap.
type session struct {
	cl *cudele.Cluster

	mu  sync.Mutex // tasks are goroutines on the real backend
	err error      // the first error a task returned
}

// runSession builds the run's cluster — on the real backend over a fresh
// data dir of its own, so recovery never reloads another run's objects —
// attaches the sink and, when the run reads heat, the heat accountant,
// runs body, and then — whether body failed or not — pulls the run's
// metrics, checks for leaked tasks, shuts the runtime down and removes
// the data dir, so a failed run neither parks its tasks on a grid worker
// nor drops out of the trace nor leaves its objects behind.
func runSession[T any](opts Options, spec runSpec, body func(*session) (T, error)) (T, error) {
	cfg := cudele.DefaultConfig()
	if spec.config != nil {
		spec.config(&cfg)
	}
	var dataDir string // a real run's fsynced object log; the simulator has none
	if spec.backend == cudele.BackendReal {
		dir, err := os.MkdirTemp("", "cudele-run-*")
		if err != nil {
			var zero T
			return zero, err
		}
		defer os.RemoveAll(dir) // after Shutdown: deferred calls run last
		dataDir = dir
	}
	cl := cudele.NewCluster(cudele.WithSeed(spec.seed), cudele.WithConfig(cfg),
		cudele.WithMDSRanks(max(spec.ranks, 1)),
		cudele.WithBackend(spec.backend), cudele.WithDataDir(dataDir))
	opts.Sink.start(spec.name, cl)
	if spec.halfLife > 0 {
		cl.EnableHeat(spec.halfLife)
	}

	out, err := body(&session{cl: cl})

	opts.Sink.finish(spec.name, cl)
	leak := cl.Runtime().LeakCheck()
	cl.Runtime().Shutdown()
	switch {
	case err == nil:
		err = leak
	case leak != nil:
		err = fmt.Errorf("%w (and %v)", err, leak)
	}
	return out, err
}

// clients mounts n clients named client.0 .. client.n-1.
func (s *session) clients(n int) []*cudele.Client {
	cs := make([]*cudele.Client, n)
	for i := range cs {
		cs[i] = s.cl.NewClient(fmt.Sprintf("client.%d", i))
	}
	return cs
}

// spawn starts fn as a task. The first error any task returns fails the
// run; the other tasks still run to completion, so the cluster drains.
func (s *session) spawn(name string, fn func(p cudele.Proc) error) {
	s.cl.Go(name, func(p cudele.Proc) {
		if err := fn(p); err != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.mu.Unlock()
		}
	})
}

// each spawns one task per client, named after it.
func (s *session) each(cs []*cudele.Client, fn func(p cudele.Proc, i int, c *cudele.Client) error) {
	for i, c := range cs {
		s.spawn(c.Name(), func(p cudele.Proc) error { return fn(p, i, c) })
	}
}

// drain runs every spawned task to completion and returns the elapsed
// seconds (virtual on sim, wall on real) and the first task error.
func (s *session) drain() (float64, error) {
	total := s.cl.RunAll()
	s.mu.Lock()
	defer s.mu.Unlock()
	return total, s.err
}

// phase runs fn, and every task it spawns, to completion as one task
// called name. A run may have several phases (set-up, then measurement).
func (s *session) phase(name string, fn func(p cudele.Proc) error) (float64, error) {
	s.spawn(name, fn)
	return s.drain()
}
