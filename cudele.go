// Package cudele is a Go reproduction of "Cudele: An API and Framework
// for Programmable Consistency and Durability in a Global Namespace"
// (Sevilla et al., IEEE IPDPS 2018).
//
// Cudele lets administrators assign consistency (invisible, weak, strong)
// and durability (none, local, global) policies to subtrees of a single
// global file-system namespace. Policies are compositions of the
// mechanisms — RPCs, Append Client Journal, Volatile Apply, Nonvolatile
// Apply, Stream, Local Persist, Global Persist — so one namespace can host
// POSIX-strict subtrees next to BatchFS/DeltaFS-style decoupled subtrees.
// A subtree's registered composition is what it means: the MDS streams
// the RPC updates of a subtree whose composition contains Stream, and
// the client runs the completion-time mechanisms with RunComposition.
//
// This package is the public facade over a complete, deterministic,
// discrete-event-simulated CephFS-like cluster: a replicated object store
// (RADOS), a metadata server with journal streaming and a capability
// protocol, a monitor that versions and distributes policies, and a
// client library implementing every mechanism. Metadata operations run
// for real (real namespace trees, real binary journals, real objects);
// only device timing is simulated, calibrated to the paper's testbed.
//
// A minimal session:
//
//	cl := cudele.NewCluster()
//	c := cl.NewClient("client.0")
//	cl.Run(func(p *cudele.Proc) {
//		c.MkdirAll(p, "/home/alice/job", 0755)
//		e, _ := cl.Decouple(p, c, "/home/alice/job",
//			"consistency: weak\ndurability: local\nallocated_inodes: 100000\n")
//		root, _ := c.DecoupledRoot()
//		c.LocalCreate(p, root, "ckpt.0", 0644)
//		comp, _ := e.Policy.Composition() // append_client_journal+local_persist+volatile_apply
//		c.RunComposition(p, comp)
//	})
package cudele

import (
	"fmt"
	"path/filepath"
	"sync"

	"cudele/internal/client"
	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/monitor"
	"cudele/internal/namespace"
	"cudele/internal/obs"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

// Re-exported types: the facade's vocabulary is the internal packages'
// types, so the whole public API lives behind one import.
type (
	// Cluster wires a complete simulated Cudele deployment: object
	// store, metadata cluster (one or more ranks), monitor, and
	// clients, all sharing one deterministic virtual clock.
	Cluster struct {
		rt  runtime.Runtime
		cfg model.Config

		dataDir string

		objects *rados.Cluster
		meta    *mds.Cluster
		mon     *monitor.Monitor

		// setup orders set-up code against admin scrapes. NewClient and
		// EnableHeat write daemon state while holding no lock domain —
		// a nil task stands for "nothing else runs" — and that stopped
		// being true when the admin endpoint brought a goroutine that
		// is not a task: a scrape reads the same state under
		// Runtime.Exclusive. Both sides take this lock, a scrape inside
		// Exclusive. It cannot be Exclusive on both sides: set-up code
		// has no task handle to pass, and a caller that is itself a task
		// holds its domain, which Exclusive(nil, …) would wait for
		// forever.
		setup sync.Mutex

		clients map[string]*client.Client

		// heat is the per-subtree load accountant; nil until EnableHeat.
		heat *obs.Heat
	}

	// Proc is a task handle — a simulation process or, on the real
	// backend, a goroutine; all cluster operations take one.
	Proc = runtime.Task

	// Runtime is the execution backend a cluster runs on.
	Runtime = runtime.Runtime

	// Backend selects a cluster's execution backend (see WithBackend).
	Backend = runtime.Kind

	// Client is a storage client with both the RPC path and the
	// decoupled-namespace mechanisms.
	Client = client.Client

	// Policy is a subtree's consistency/durability configuration.
	Policy = policy.Policy

	// Composition is an ordered mechanism composition.
	Composition = policy.Composition

	// Config is the calibrated device/cost model.
	Config = model.Config

	// Ino is an inode number.
	Ino = namespace.Ino

	// Subtree is the monitor's one record of a subtree: its lifecycle
	// state, epoch and migration count, and its registration — the
	// monitor's copy of the registered Policy, stamped with its Version,
	// Owner and inode grant [GrantLo, GrantLo+GrantN); nil when the
	// subtree is only placed or migrated. Its rank is
	// Metadata().Table().RankFor(path).
	Subtree = monitor.Subtree

	// Balancer is a running heat-driven balancer (see StartBalancer).
	Balancer = monitor.Balancer

	// BalancerConfig tunes a balancer run; zero values pick defaults.
	BalancerConfig = monitor.BalancerConfig
)

// Consistency levels (paper Table I columns, plus the two cells beyond
// Table I: speculative and strong-eventual).
const (
	ConsInvisible      = policy.ConsInvisible
	ConsWeak           = policy.ConsWeak
	ConsStrong         = policy.ConsStrong
	ConsSpeculative    = policy.ConsSpeculative
	ConsStrongEventual = policy.ConsStrongEventual
)

// Durability levels (paper Table I rows).
const (
	DurNone   = policy.DurNone
	DurLocal  = policy.DurLocal
	DurGlobal = policy.DurGlobal
)

// Interfere policies (paper §III-C).
const (
	InterfereAllow = policy.InterfereAllow
	InterfereBlock = policy.InterfereBlock
)

// RootIno is the namespace root's inode number.
const RootIno = namespace.RootIno

// Execution backends (see WithBackend).
const (
	// BackendSim is the deterministic discrete-event simulator: virtual
	// time, calibrated device costs, byte-identical results per seed.
	BackendSim = runtime.SimKind
	// BackendReal runs tasks as goroutines on wall time; with a data
	// dir, RADOS objects live in an fsynced log (see WithDataDir).
	BackendReal = runtime.RealKind
)

// ParseBackend parses a -backend flag value ("sim" or "real").
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "sim":
		return BackendSim, nil
	case "real":
		return BackendReal, nil
	}
	return BackendSim, fmt.Errorf("unknown backend %q (valid: sim, real)", s)
}

// DefaultConfig returns the calibration for the paper's CloudLab testbed.
func DefaultConfig() Config { return model.Default() }

// Option customizes NewCluster.
type Option func(*clusterOpts)

type clusterOpts struct {
	seed     int64
	cfg      model.Config
	ranks    int
	backend  Backend
	dataDir  string
	loopback bool
}

// WithSeed sets the deterministic simulation seed.
func WithSeed(seed int64) Option { return func(o *clusterOpts) { o.seed = seed } }

// WithConfig overrides the calibrated device model.
func WithConfig(cfg Config) Option { return func(o *clusterOpts) { o.cfg = cfg } }

// WithMDSRanks sets the number of metadata ranks. The default is 1, the
// paper's deployment; more ranks partition the namespace by subtree
// placement (Monitor.Place, or Migrate), which no policies file sets.
func WithMDSRanks(n int) Option { return func(o *clusterOpts) { o.ranks = n } }

// WithBackend selects the execution backend. The default, BackendSim,
// is the deterministic simulator; BackendReal runs the same protocol
// stack on goroutines and wall time.
func WithBackend(b Backend) Option { return func(o *clusterOpts) { o.backend = b } }

// WithDataDir roots the real backend's durability on dir: RADOS objects
// are logged to dir/objects/objects.log and a mutation — or a mechanism
// that pipelines many, like Nonvolatile Apply — is acknowledged only
// after an fsync that covers its records (so DurGlobal survives a
// kill), and each client's Local Persist target is a real file under
// dir/<client>. One live cluster per dir. It is ignored on the sim
// backend.
func WithDataDir(dir string) Option { return func(o *clusterOpts) { o.dataDir = dir } }

// WithLoopbackNet adds one loopback-TCP round trip to every metadata Call
// on the real backend — the frame is the request, its echo the reply —
// so measured latencies include a real kernel network stack, once per
// Call as the model charges it. CollectMetrics then exports the count as
// cudele_net_round_trips_total. Ignored on the sim backend.
func WithLoopbackNet() Option { return func(o *clusterOpts) { o.loopback = true } }

// NewCluster builds a cluster with 1 monitor, the configured number of
// metadata ranks (default 1), and the configured number of OSDs
// (paper §V: 1 MON, 1 MDS, 3 OSDs).
func NewCluster(opts ...Option) *Cluster {
	o := clusterOpts{seed: 1, cfg: model.Default(), ranks: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cudele: invalid config: %v", err))
	}
	var rt runtime.Runtime
	switch o.backend {
	case BackendReal:
		re := realrt.New(o.seed)
		if o.loopback {
			if err := re.EnableLoopback(); err != nil {
				panic(fmt.Sprintf("cudele: loopback net: %v", err))
			}
		}
		rt = re
	default:
		rt = sim.NewEngine(o.seed)
	}
	obj := rados.New(rt, o.cfg)
	if o.backend == BackendReal && o.dataDir != "" {
		fs, err := rados.OpenFileStore(filepath.Join(o.dataDir, "objects"))
		if err != nil {
			panic(fmt.Sprintf("cudele: data dir: %v", err))
		}
		if err := obj.AttachStore(fs); err != nil {
			panic(fmt.Sprintf("cudele: load objects: %v", err))
		}
	}
	meta := mds.NewCluster(rt, o.cfg, obj, o.ranks)
	return &Cluster{
		rt:      rt,
		cfg:     o.cfg,
		dataDir: o.dataDir,
		objects: obj,
		meta:    meta,
		mon:     monitor.New(rt, meta),
		clients: make(map[string]*client.Client),
	}
}

// Runtime returns the execution backend the cluster runs on.
func (cl *Cluster) Runtime() Runtime { return cl.rt }

// Backend reports which execution backend the cluster runs on.
func (cl *Cluster) Backend() Backend { return cl.rt.Kind() }

// Config returns the cluster's cost model.
func (cl *Cluster) Config() Config { return cl.cfg }

// MDS returns the rank-0 metadata server — the whole service when the
// cluster runs the default single rank.
func (cl *Cluster) MDS() *mds.Server { return cl.meta.Rank(0) }

// Metadata returns the metadata cluster (all ranks plus routing).
func (cl *Cluster) Metadata() *mds.Cluster { return cl.meta }

// Objects returns the simulated object store.
func (cl *Cluster) Objects() *rados.Cluster { return cl.objects }

// Monitor returns the cluster monitor.
func (cl *Cluster) Monitor() *monitor.Monitor { return cl.mon }

// NewClient creates and mounts a client. Client names must be unique.
// Every client sends through the metadata cluster, which routes by its
// placement table. It is set-up code: call it while no task
// runs, or from the only one that does.
func (cl *Cluster) NewClient(name string) *Client {
	cl.setup.Lock()
	defer cl.setup.Unlock()
	if _, dup := cl.clients[name]; dup {
		panic(fmt.Sprintf("cudele: duplicate client %q", name))
	}
	c := client.New(cl.rt, cl.cfg, name, cl.meta, cl.objects)
	if cl.rt.Kind() == BackendReal && cl.dataDir != "" {
		c.SetLocalDir(filepath.Join(cl.dataDir, name))
	}
	c.Mount(nil)
	cl.clients[name] = c
	return c
}

// Go spawns a task; on the sim backend it will not run until
// Run/RunAll, on the real backend it starts immediately.
func (cl *Cluster) Go(name string, fn func(p Proc)) { cl.rt.Spawn(name, fn) }

// Run spawns fn as a task and drives the cluster until all tasks
// drain, returning the elapsed time in seconds (virtual on sim, wall
// on real). It is the simplest way to execute a scripted scenario.
func (cl *Cluster) Run(fn func(p Proc)) float64 {
	cl.rt.Spawn("main", fn)
	return cl.rt.RunAll().Seconds()
}

// RunAll drives all previously spawned tasks to completion.
func (cl *Cluster) RunAll() float64 { return cl.rt.RunAll().Seconds() }

// Close reaps every task so no goroutine outlives the cluster; call it
// when discarding a cluster (especially real-backend ones, whose tasks
// are true goroutines). It returns the number of tasks reaped — 0 for
// a cleanly drained run.
func (cl *Cluster) Close() int { return cl.rt.Shutdown() }

// Decouple registers the subtree at path with the monitor using a
// policies file (the paper's (path, policies.yml) API) and attaches the
// resulting grant to client c.
func (cl *Cluster) Decouple(p Proc, c *Client, path, policiesText string) (*Subtree, error) {
	pol, err := policy.ParseFile(policiesText)
	if err != nil {
		return nil, err
	}
	return cl.DecouplePolicy(p, c, path, pol)
}

// DecouplePolicy is Decouple with an already-built Policy.
func (cl *Cluster) DecouplePolicy(p Proc, c *Client, path string, pol *Policy) (*Subtree, error) {
	e, err := cl.mon.RegisterPolicy(p, path, pol, c.Name())
	if err != nil {
		return nil, err
	}
	if err := c.AdoptGrant(p, path, e.Policy); err != nil {
		return nil, err
	}
	return e, nil
}

// Recouple returns a subtree to the global namespace's semantics.
func (cl *Cluster) Recouple(p Proc, path string) error {
	return cl.mon.Unregister(p, path)
}

// Migrate moves ownership of the subtree at path to metadata rank dst
// online: the source freezes and streams the subtree while clients keep
// operating (bounced requests retry transparently), and ownership flips
// only when the export has committed, with a new cluster-map epoch.
func (cl *Cluster) Migrate(p Proc, path string, dst int) error {
	return cl.mon.Migrate(p, path, dst)
}

// StartBalancer spawns the monitor's heat-driven balancer, which
// periodically samples the heat map and exports subtrees off overloaded
// ranks. EnableHeat must have been called first. The balancer runs
// cfg.Rounds rounds and stops; it is entirely opt-in, so runs that never
// start one are unaffected.
func (cl *Cluster) StartBalancer(cfg BalancerConfig) *Balancer {
	if cl.heat == nil {
		panic("cudele: StartBalancer requires EnableHeat")
	}
	return cl.mon.StartBalancer(cl.heat, cfg)
}

// Subtrees lists the monitor's subtree records, registered or only
// placed, sorted by path.
func (cl *Cluster) Subtrees() []*Subtree { return cl.mon.Subtrees() }

// CompileTableI returns the Table I composition for a consistency and
// durability level.
func CompileTableI(c policy.Consistency, d policy.Durability) (Composition, error) {
	return policy.Compile(c, d)
}
