// Package mds implements the metadata service: the in-memory metadata
// store, the request pipeline, the inode cache and capability protocol,
// journal streaming with the segment/dispatch tunables, bulk merge of
// decoupled client journals (Volatile Apply), and recovery from the
// RADOS-resident metadata store (paper §II, §IV).
//
// A Server is one metadata rank. Clients send messages to its transport
// endpoint from their own tasks; the request is queued, served on the
// rank's CPU resource (charging calibrated service times), and the reply
// carries capability state back to the client. All of a rank's state
// belongs to its lock domain (runtime.Domain): the wire runs handlers
// inside it, the task-taking methods below enter it, and the rank's
// background tasks are spawned in it, so on the real backend ranks run
// in parallel with each other and with everything else.
//
// Every message type implements the unexported message interface next to
// its declaration (messages.go, migrate.go): its span label, its routing
// key and its handler, so the dispatcher behind the wire is one interface
// call. An RPC's whole pipeline — admission, accounting, CPU, service
// time, interference check, table-driven op handler (ops.go), journaling
// — is serveRPC, read top to bottom. Cluster composes N ranks behind a
// routing table (cluster.go).
package mds

import (
	"errors"
	"fmt"
	"sync/atomic"

	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/obs"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// Op identifies a metadata RPC.
type Op uint8

// Metadata RPC operations.
const (
	OpLookup Op = iota
	OpCreate
	OpMkdir
	OpGetAttr
	OpSetAttr
	OpReadDir
	OpUnlink
	OpRmdir
	OpRename
	OpResolve
	opMax
)

// Request is one metadata RPC from a client.
type Request struct {
	Op     Op
	Client string

	// Route is the request's path hint for the routing layer: the
	// parent directory's path when the client knows it, empty otherwise
	// (empty routes to rank 0).
	Route string

	Parent namespace.Ino
	Name   string
	Path   string // OpResolve only

	NewParent namespace.Ino // OpRename
	NewName   string        // OpRename

	Ino   namespace.Ino // OpGetAttr / OpSetAttr
	Mode  uint32
	UID   uint32
	GID   uint32
	Size  uint64
	Mtime int64
}

func (m *Request) label() string                       { return "rpc." + m.Op.String() }
func (m *Request) route() string                       { return m.Route }
func (m *Request) serve(s *Server, p runtime.Task) any { return s.serveRPC(p, m) }
func (m *Request) refused(err error) any               { return &Reply{Err: err} }

// Reply is the MDS's answer.
type Reply struct {
	Err error

	Ino   namespace.Ino
	IsDir bool
	Mode  uint32
	UID   uint32
	GID   uint32
	Size  uint64
	Mtime int64

	// Names is the OpReadDir listing, sorted. It is the store's shared
	// listing snapshot, not a copy (namespace.Store.ReadDir): read-only
	// for the receiver, and never changed once sent.
	Names []string

	// CapGranted tells the client it now holds the read-caching
	// capability on the request's parent directory: it may satisfy
	// lookups locally.
	CapGranted bool
	// CapLost tells the client the directory has become shared and its
	// capability (if any) is gone: subsequent creates need a lookup RPC
	// first (paper Fig 3c).
	CapLost bool
}

// ErrShutdown is returned for requests submitted to a stopped server.
var ErrShutdown = errors.New("mds: server shut down")

// Metrics collects cumulative server counters for the benchmarks.
type Metrics struct {
	Requests     uint64
	ByOp         [opMax]uint64
	CapRevokes   uint64
	Rejected     uint64 // interfere-block -EBUSY replies
	Journaled    uint64 // events appended to the MDS journal
	Dispatches   uint64 // journal segments pushed to the object store
	JournalBytes uint64 // nominal journal bytes streamed to the object store
	Merged       uint64 // events merged via Volatile Apply
	MergeJobs    uint64 // client journals merged
	// MergeConflicts counts speculative predictions rejected at
	// validation time (merge.go).
	MergeConflicts uint64
	// Streamed-merge pipeline counters (scheduler.go).
	MergeChunks       uint64 // chunks accepted into merge windows
	MergeBackpressure uint64 // opens/chunks answered with backpressure
	// Migration counters (migrate.go).
	Exports            uint64 // subtrees frozen for export on this rank
	Imports            uint64 // import sessions admitted on this rank
	ImportChunks       uint64 // directory-object chunks accepted
	ImportBackpressure uint64 // import opens/chunks answered with backpressure
	Bounced            uint64 // requests answered with a WrongRank redirect
}

// Server is one simulated metadata rank.
type Server struct {
	eng   runtime.Runtime
	cfg   model.Config
	store *namespace.Store
	obj   *rados.Cluster
	rank  int

	// dom is the rank's lock domain; every field below belongs to it
	// unless it says otherwise.
	dom runtime.Domain

	cpu runtime.Resource // single-threaded request pipeline, like CephFS

	sessions map[string]bool

	caps map[namespace.Ino]*dirCaps

	// owners maps a decoupled subtree's policy-root inode to the client
	// that decoupled it, for interfere-policy enforcement.
	owners map[namespace.Ino]string

	stream *streamState
	// streamOn is the Stream mechanism's switch. It is atomic, not part
	// of the domain, because clients flip it from their own tasks at the
	// start of a composition and set-up code flips it with no task.
	streamOn atomic.Bool

	// merge and imports are the rank's two windowed-stream schedulers:
	// streamed (chunked) Volatile Apply and subtree import.
	merge, imports *streamSched

	// se is the lazily created strong-eventual merge resolver over
	// store; nil until the first MergeConverge message, wiped with the
	// store on Crash.
	se *namespace.SEMerger

	mergeQueue int // client journals queued for Volatile Apply

	// frozen marks subtree paths mid-export: requests into them bounce
	// with a Frozen redirect until the migration commits or aborts.
	// exports holds the live export sessions. All volatile — a crash
	// wipes them.
	frozen  map[string]bool
	exports map[string]*exportState

	// resolveOwner is the cluster-installed ownership oracle for the
	// stale-routing bounce: it returns the owning rank and table epoch
	// for a path, with ok=false while no migration or split has ever
	// happened (the check is then skipped entirely, keeping calibrated
	// runs byte-identical). nil on standalone servers.
	resolveOwner func(path string) (rank int, epoch uint64, ok bool)

	metrics Metrics

	// heat is the per-subtree load accountant; nil (the default) means
	// heat accounting is off and the record sites cost one nil check.
	// subtreeOf maps a request route to its placed subtree (the heat
	// cell key); nil folds everything into "/".
	heat      *obs.Heat
	subtreeOf func(string) string

	stopped bool

	// recoveredSegs is how many streamed journal segment objects the last
	// Recover replayed; Restart offsets the fresh journal's object names
	// past them so the rank's on-store series stays append-only.
	recoveredSegs int

	// grantSlot is the next unissued slot of this rank's client-grant
	// band (grantAt). It only grows: the ranges a rank has handed out are
	// a durable registry, like recoveredSegs — a recouple, an export or a
	// Crash forgets the owner, not that a client may still hold inodes
	// drawn from the range.
	grantSlot uint64

	// ep is the rank's wire endpoint (network latency on Call).
	ep *transport.Wire
}

// New creates a single metadata rank (rank 0) over the given object
// store. The store starts with just the root directory; use Recover to
// load state from RADOS.
func New(eng runtime.Runtime, cfg model.Config, obj *rados.Cluster) *Server {
	return NewRank(eng, cfg, obj, 0)
}

// NewRank creates the metadata server for one rank of a multi-rank
// deployment. Ranks other than 0 allocate server-assigned inode numbers
// from a disjoint band so partitions of one namespace never collide.
func NewRank(eng runtime.Runtime, cfg model.Config, obj *rados.Cluster, rank int) *Server {
	cpuName := "mds.cpu"
	if rank > 0 {
		cpuName = fmt.Sprintf("mds%d.cpu", rank)
	}
	name := fmt.Sprintf("mds.%d", rank)
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		store:    newRankStore(rank),
		obj:      obj,
		rank:     rank,
		dom:      eng.NewDomain(name),
		cpu:      eng.NewResource(cpuName, 1),
		sessions: make(map[string]bool),
		caps:     make(map[namespace.Ino]*dirCaps),
		owners:   make(map[namespace.Ino]string),
	}
	s.stream = newStreamState(s)
	s.merge = newMergeSched(s)
	s.imports = newImportSched(s)
	// The tracing interceptor wraps the whole message dispatcher, so
	// every RPC and Post is spanned on the rank's track without any op
	// handler knowing about it; with tracing off it is one nil check.
	s.ep = transport.NewWire(name, cfg.NetLatency,
		transport.Chain(s.handle, transport.Tracing(name, labelOf)))
	s.ep.Bind(s.dom)
	return s
}

// labelOf names the span and flight-recorder event for one endpoint
// message. Only called when tracing or the flight recorder is enabled.
func labelOf(msg any) string {
	if m, ok := msg.(message); ok {
		return m.label()
	}
	return fmt.Sprintf("msg.%T", msg)
}

// flightDetail is the flight-recorder detail string for one endpoint
// message. Only called when the flight recorder is enabled.
func flightDetail(msg any) string {
	if m, ok := msg.(*Request); ok {
		if m.Route != "" {
			return m.Client + " " + m.Route
		}
		return m.Client
	}
	return RouteOf(msg)
}

// SetHeat installs the heat accountant (nil disables accounting).
// subtreeOf maps a request route to the placed subtree that owns it —
// the heat cell key — so load aggregates per policy subtree; nil folds
// every route into "/".
func (s *Server) SetHeat(h *obs.Heat, subtreeOf func(string) string) {
	s.heat = h
	s.subtreeOf = subtreeOf
}

// heatSubtree resolves a route to its heat cell subtree.
func (s *Server) heatSubtree(route string) string {
	if s.subtreeOf == nil {
		return "/"
	}
	return s.subtreeOf(route)
}

// rankInoFloor is the base of rank r's server-assigned inode band. Bands
// are 2^32 inodes wide, far below the 2^40 client-grant space.
func rankInoFloor(r int) namespace.Ino {
	return namespace.Ino(uint64(r) << 32)
}

// newRankStore is an empty store that allocates server-assigned inodes
// from rank r's band — what a rank starts with, crashes to, and recovers
// into.
func newRankStore(r int) *namespace.Store {
	st := namespace.NewStore()
	st.SetInoFloor(rankInoFloor(r))
	return st
}

// Rank returns the server's rank number.
func (s *Server) Rank() int { return s.rank }

// Name implements transport.Endpoint.
func (s *Server) Name() string { return s.ep.Name() }

// Call implements transport.Endpoint: one network hop in, pipeline
// service, one network hop back.
func (s *Server) Call(p runtime.Task, msg any) any { return s.ep.Call(p, msg) }

// Post implements transport.Endpoint: the message handler charges its
// own calibrated costs (bulk merges, control traffic).
func (s *Server) Post(p runtime.Task, msg any) any { return s.ep.Post(p, msg) }

// Endpoint returns the rank's wire endpoint.
func (s *Server) Endpoint() transport.Endpoint { return s.ep }

// InjectFaults composes a fault interceptor around the rank's wire, so a
// chaos harness can drop, delay, or duplicate messages to this rank.
// Never called on calibrated runs — the wire is untouched by default.
func (s *Server) InjectFaults(ic transport.Interceptor) { s.ep.Wrap(ic) }

// handle is the rank's message dispatcher behind the wire.
func (s *Server) handle(p runtime.Task, msg any) any {
	if fl := s.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), s.ep.Name(), "mds", labelOf(msg), flightDetail(msg))
	}
	m, ok := msg.(message)
	if !ok {
		return &Reply{Err: fmt.Errorf("mds: unknown message %T: %w", msg, namespace.ErrInval)}
	}
	if r, ok := msg.(refusable); ok {
		if werr := s.bounce(r); werr != nil {
			return r.refused(werr)
		}
	}
	return m.serve(s, p)
}

// bounce is the redirect for a workload message addressed to a subtree
// this rank has frozen for export — or, once any migration has happened,
// does not own at all (a stale client table) — nil when the rank should
// serve it. The check costs no simulated time and, on a cluster that has
// never migrated, reduces to one map-length test, so calibrated runs are
// untouched.
func (s *Server) bounce(msg refusable) error {
	migrated := false
	if s.resolveOwner != nil {
		_, _, migrated = s.resolveOwner("/")
	}
	if len(s.frozen) == 0 && !migrated {
		return nil
	}
	route := msg.route()
	if req, ok := msg.(*Request); ok && route == "" && req.Parent != 0 {
		// Routed by parent-inode hint only: recover the path server-side
		// so the ownership check still applies.
		route, _ = s.store.PathOf(req.Parent)
	}
	if route == "" {
		return nil
	}
	frozen := s.frozenCovers(transport.Clean(route))
	rank, epoch := s.rank, uint64(0)
	if s.resolveOwner != nil {
		if r, e, ok := s.resolveOwner(route); ok {
			epoch = e
			if !frozen {
				rank = r
			}
		}
	}
	if !frozen && rank == s.rank {
		return nil
	}
	werr := &transport.WrongRankError{Path: route, Rank: rank, Epoch: epoch, Frozen: frozen}
	s.metrics.Bounced++
	if fl := s.eng.Flight(); fl != nil {
		fl.Record(int64(s.eng.Now()), s.ep.Name(), "mds", "bounce", werr.Error())
	}
	return werr
}

// SetOwnership installs the cluster's ownership oracle for the
// stale-routing bounce.
func (s *Server) SetOwnership(resolve func(path string) (rank int, epoch uint64, ok bool)) {
	s.resolveOwner = resolve
}

// Store exposes the in-memory metadata store. Benchmarks and the monitor
// read it; clients must go through the endpoint.
func (s *Server) Store() *namespace.Store { return s.store }

// CPU exposes the MDS CPU resource for utilization reporting.
func (s *Server) CPU() runtime.Resource { return s.cpu }

// Metrics returns a snapshot of the server counters.
func (s *Server) Metrics() Metrics { return s.metrics }

// Config returns the server's calibration config.
func (s *Server) Config() model.Config { return s.cfg }

// SetStream turns MDS journal streaming (the Stream mechanism) on or off.
func (s *Server) SetStream(on bool) { s.streamOn.Store(on) }

// Refresh implements the client Service interface: a single server has
// no routing replica to re-sync.
func (s *Server) Refresh() {}

// StreamEnabled reports whether journal streaming is on.
func (s *Server) StreamEnabled() bool { return s.streamOn.Load() }

// Shutdown makes the server reject future requests.
func (s *Server) Shutdown() { s.stopped = true }

// Crash models the rank dying: every piece of volatile state — sessions,
// capabilities, the owner map, the unflushed journal tail, buffered merge
// chunks — is lost, while objects already in RADOS survive. The server
// rejects requests until Restart. Streamed merges in flight are flagged
// aborted so the scheduler retires them, freeing their admission slots
// and unblocking any client parked in MergeWait with an error.
func (s *Server) Crash(p runtime.Task) {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	if fl := s.eng.Flight(); fl != nil {
		fl.Record(int64(s.eng.Now()), s.ep.Name(), "mds", "crash", "")
	}
	s.stopped = true
	s.sessions = make(map[string]bool)
	s.caps = make(map[namespace.Ino]*dirCaps)
	s.owners = make(map[namespace.Ino]string)
	s.store = newRankStore(s.rank)
	s.se = nil // the CRDT summaries rendered into the lost store die with it

	// Replace the stream state outright: a dispatch batch already in
	// flight keeps writing through the old state (those writes hit the
	// wire before the crash), but its bookkeeping can no longer leak into
	// the fresh journal.
	s.stream = newStreamState(s)

	// Migration state is volatile: export sessions and freezes die with
	// the rank (the monitor's orchestration sees ErrShutdown or a missing
	// session and aborts).
	s.frozen = nil
	s.exports = nil

	// Retire in-flight streamed merges and imports on the old schedulers,
	// then start fresh.
	s.merge = s.merge.crash()
	s.imports = s.imports.crash()
}

// Restart brings a crashed rank back: the metadata store is rebuilt from
// RADOS (directory objects plus streamed journal replay) and the rank
// accepts requests again. The fresh journal's segment objects continue
// the rank's series after the recovered ones instead of overwriting them.
func (s *Server) Restart(p runtime.Task) error {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	if fl := s.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), s.ep.Name(), "mds", "restart", "")
	}
	if err := s.Recover(p); err != nil {
		return err
	}
	s.stream.segBase = s.recoveredSegs
	s.stopped = false
	return nil
}

// Mount opens client's session from a task (the client's own).
func (s *Server) Mount(p runtime.Task, client string) {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	s.OpenSession(client)
}

// Unmount closes client's session from a task.
func (s *Server) Unmount(p runtime.Task, client string) {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	s.CloseSession(client)
}

// OpenSession registers a client session. Additional active sessions add
// per-op bookkeeping overhead (lock contention, cap accounting), which is
// what limits scaling beyond pure CPU saturation (paper §II-A). It is the
// set-up form, for callers outside task context; tasks use Mount.
func (s *Server) OpenSession(client string) {
	s.sessions[client] = true
}

// CloseSession removes a client session and drops its capabilities.
func (s *Server) CloseSession(client string) {
	delete(s.sessions, client)
	for _, dc := range s.caps {
		if dc.holder == client {
			dc.holder = ""
		}
	}
}

// Sessions returns the number of active client sessions.
func (s *Server) Sessions() int { return len(s.sessions) }

// serviceTime is the MDS CPU cost of one request, with uniform noise of
// +-MDSOpJitter to model cache misses and allocator variance. The noise
// is drawn from the rank's domain source: on the simulator that is the
// engine's, so the draw order is the calibrated one; on the real backend
// it is the rank's own, and ranks serving in parallel share no lock.
func (s *Server) serviceTime(op Op) runtime.Duration {
	base := s.cfg.MDSOpTime
	if op < opMax && opTable[op].lookup {
		base = s.cfg.MDSLookupTime
	}
	n := len(s.sessions)
	if n > 1 {
		base += runtime.Duration(n-1) * s.cfg.MDSSessionOverhead
	}
	if j := s.cfg.MDSOpJitter; j > 0 {
		noise := 1 + j*(2*s.dom.Rand().Float64()-1)
		base = runtime.Duration(float64(base) * noise)
	}
	return base
}

// Submit sends one RPC to the server from the calling client process: one
// network hop in, FIFO service on the MDS CPU, one network hop back
// (paper §II: the RPCs mechanism). It is a convenience wrapper over the
// rank's endpoint.
func (s *Server) Submit(p runtime.Task, req *Request) *Reply {
	return s.ep.Call(p, req).(*Reply)
}

// serveRPC is the whole pipeline of one metadata RPC, in the order the
// request meets the rank. Every sleep, CPU acquisition and random draw
// below is part of the calibrated schedule: reordering them moves every
// table.
func (s *Server) serveRPC(p runtime.Task, req *Request) *Reply {
	if s.stopped {
		return &Reply{Err: ErrShutdown}
	}
	s.metrics.Requests++
	if int(req.Op) < len(s.metrics.ByOp) {
		s.metrics.ByOp[req.Op]++
	}

	// The rank's CPU is held for the whole request body — service time,
	// interference check, op handler — like CephFS's single-threaded
	// pipeline.
	var arrive runtime.Time
	if s.heat != nil { // with heat off nobody reads the arrival time
		arrive = p.Now()
	}
	s.cpu.Acquire(p)
	if s.heat != nil {
		// Queue wait is the time spent behind other requests for the
		// rank's CPU — the saturation signal a balancer watches.
		now := p.Now()
		s.heat.RecordOp(int64(now), s.heatSubtree(req.Route), s.rank,
			req.Op.Mutates(), runtime.Duration(now-arrive))
	}
	p.Sleep(s.serviceTime(req.Op))
	var reply *Reply
	if req.Op.Mutates() {
		reply = s.checkInterfere(p, req)
	}
	switch {
	case reply != nil: // rejected by an interfere-block policy
	case req.Op >= opMax || opTable[req.Op].handler == nil:
		reply = &Reply{Err: fmt.Errorf("mds: %v: %w", req.Op, namespace.ErrInval)}
	default:
		reply = opTable[req.Op].handler(s, p, req)
	}
	s.cpu.Release()

	// A successful mutation is appended to the MDS journal after the op
	// completes: encoding and segment bookkeeping steal MDS CPU
	// (MDSJournalOpTime), and the client additionally waits for the safe
	// ack (MDSJournalLatency, latency only).
	if reply.Err == nil && s.streamOn.Load() && req.Op.Mutates() {
		s.cpu.Acquire(p)
		p.Sleep(s.cfg.MDSJournalOpTime)
		s.stream.record(p, req, reply)
		s.cpu.Release()
		p.Sleep(s.cfg.MDSJournalLatency)
	}
	return reply
}

func inodeReply(in *namespace.Inode) *Reply {
	return &Reply{
		Ino: in.Ino, IsDir: in.IsDir(),
		Mode: in.Mode, UID: in.UID, GID: in.GID,
		Size: in.Size, Mtime: in.Mtime,
	}
}

// checkInterfere rejects mutations into a blocked decoupled subtree.
func (s *Server) checkInterfere(p runtime.Task, req *Request) *Reply {
	parent := req.Parent
	if parent == 0 {
		return nil
	}
	root, err := s.store.PolicyRoot(parent)
	if err != nil || root == namespace.RootIno {
		return nil
	}
	owner, ok := s.owners[root]
	if !ok || owner == req.Client {
		return nil
	}
	pol, err := s.store.EffectivePolicy(root)
	if err != nil || pol.Interfere != policy.InterfereBlock {
		return nil
	}
	// Rejecting still costs cycles; when the MDS is underloaded this
	// overhead is visible (paper §V-B2).
	p.Sleep(s.cfg.MDSRejectTime)
	s.metrics.Rejected++
	return &Reply{Err: fmt.Errorf("mds: subtree decoupled by %s: %w", owner, namespace.ErrBusy)}
}

// Decouple attaches pol to the subtree at path, records client as its
// owner, and reserves an inode range for it. It is invoked via the
// monitor. The returned lo is the first inode of the grant.
func (s *Server) Decouple(p runtime.Task, path string, pol *policy.Policy, client string) (lo namespace.Ino, n uint64, err error) {
	r := s.ep.Post(p, &DecoupleMsg{Path: path, Policy: pol, Client: client}).(*DecoupleReply)
	return r.Lo, r.N, r.Err
}

// grantSlots is how many grant slots fit in one rank's band.
const grantSlots = 1 << 10

// grantAt is the first inode of slot in this rank's client-grant band:
// far from server-assigned numbers, like CephFS prealloc ranges, 2^34
// inodes per rank in slots of 2^24.
func (s *Server) grantAt(slot uint64) namespace.Ino {
	return namespace.Ino(uint64(1)<<40 + uint64(s.rank)<<34 + slot<<24)
}

// onSubtree is how the control-plane handlers that name a subtree by path
// run: holding the rank's CPU, one resolve charged, fn on the subtree's
// root inode.
func (s *Server) onSubtree(p runtime.Task, path string, fn func(root namespace.Ino) error) error {
	s.cpu.Acquire(p)
	defer s.cpu.Release()
	p.Sleep(s.serviceTime(OpResolve))
	in, err := s.store.Resolve(path)
	if err != nil {
		return err
	}
	return fn(in.Ino)
}

// decouple is the DecoupleMsg handler body.
func (s *Server) decouple(p runtime.Task, m *DecoupleMsg) *DecoupleReply {
	r := &DecoupleReply{}
	r.Err = s.onSubtree(p, m.Path, func(root namespace.Ino) error {
		grant := m.Policy.AllocatedInodes
		if grant <= 0 {
			grant = s.cfg.AllocatedInodesDefault
		}
		lo, n := s.grantAt(s.grantSlot), uint64(grant)
		if lo+namespace.Ino(n) > s.grantAt(grantSlots) {
			return fmt.Errorf("mds: rank %d grant band: %w", s.rank, namespace.ErrNoSpace)
		}
		if err := s.adopt(root, m.Policy, m.Client, lo, n); err != nil {
			return err
		}
		r.Lo, r.N = lo, n
		return nil
	})
	return r
}

// adopt is everything a rank takes on about a decoupled subtree, whether
// it decouples it (decouple), imports it (importCommit) or gets it back
// after a restart (attach): the policy in the root's large inode, the
// client's inode grant reserved in the allocator, and the owner for the
// interfere check. A grant inside this rank's own band also moves
// grantSlot past it, so no later decouple here can be handed the range.
func (s *Server) adopt(root namespace.Ino, pol *policy.Policy, owner string, lo namespace.Ino, n uint64) error {
	if pol != nil {
		if err := s.store.SetPolicy(root, pol); err != nil {
			return err
		}
	}
	if lo != 0 && n > 0 {
		if err := s.store.ReserveRange(lo, n); err != nil {
			return err
		}
		if base := s.grantAt(0); lo >= base && lo < s.grantAt(grantSlots) {
			s.grantSlot = max(s.grantSlot, uint64(lo+namespace.Ino(n)-1-base)>>24+1)
		}
	}
	if owner != "" {
		s.owners[root] = owner
	}
	return nil
}

// Recouple clears the subtree's policy and owner registration.
func (s *Server) Recouple(p runtime.Task, path string) error {
	return s.ep.Post(p, &RecoupleMsg{Path: path}).(*RecoupleReply).Err
}

// recouple is the RecoupleMsg handler body.
func (s *Server) recouple(p runtime.Task, path string) error {
	return s.onSubtree(p, path, func(root namespace.Ino) error {
		delete(s.owners, root)
		return s.store.SetPolicy(root, nil)
	})
}

// Owner returns the client that decoupled the subtree rooted at ino.
func (s *Server) Owner(ino namespace.Ino) (string, bool) {
	o, ok := s.owners[ino]
	return o, ok
}
