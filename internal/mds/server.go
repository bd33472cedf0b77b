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
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/obs"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/trace"
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
	OpRename
	OpResolve
	opMax
)

// Request is one metadata RPC from a client.
type Request struct {
	Op     Op
	Client string

	// Route is the request's path hint for the routing layer: the path
	// of the directory it addresses when the client knows it, empty
	// otherwise (empty routes by the inode's band, Cluster.rankOf).
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

	// reply is the storage the rank answers in: the *Reply a Call
	// returns points here, so an RPC allocates no reply of its own. It is
	// the sender's until the request is filled again. No handler or
	// interceptor keeps the request or its reply after it returns.
	reply Reply
}

func (m *Request) label() string                       { return "rpc." + m.Op.String() }
func (m *Request) route() string                       { return m.Route }
func (m *Request) serve(s *Server, p runtime.Task) any { return s.serveRPC(p, m) }
func (m *Request) refused(err error) any {
	m.reply = Reply{Err: err}
	return &m.reply
}

// Reply is the MDS's answer. A rank writes it into the request it
// answers, so it is valid until the sender fills that request again.
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

// Server is one metadata rank of a Cluster.
type Server struct {
	c     *Cluster // the cluster this rank belongs to
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

	stream *streamState
	// streamOn is the Stream switch for mutations no registered subtree
	// root governs; a governed one streams by its root's composition. It
	// is atomic, not part of the domain, because set-up code flips it
	// with no task.
	streamOn atomic.Bool

	// merge and imports are the rank's two windowed-stream schedulers:
	// streamed (chunked) Volatile Apply and subtree import.
	merge, imports *streamSched

	// se is the lazily created strong-eventual merge resolver over
	// store; nil until the first strong-eventual merge, wiped with the
	// store on Crash.
	se *namespace.SEMerger

	mergeQueue int // client journals queued for Volatile Apply

	// frozen marks subtree paths mid-export: requests into them bounce
	// with a Frozen redirect until the migration commits or aborts.
	// exports holds the live export sessions. All volatile — a crash
	// wipes them.
	frozen  map[string]bool
	exports map[string]*exportState
	// exported records, for every inode an export this rank committed
	// took away and it has not held again since, its name and the
	// directory that held it, in ascending inode order (exportedPath).
	// Volatile too.
	exported []namespace.Pruned

	metrics Metrics

	// heat is the per-subtree load accountant; nil (the default) means
	// heat accounting is off and the record sites cost one nil check.
	heat *obs.Heat

	// rpcLabels holds the pprof label set of each RPC op on this rank,
	// built the first time the label plane labels one (Server.labels).
	rpcLabels [opMax]context.Context

	stopped bool

	// recoveredSegs is how many streamed journal segment objects the last
	// Recover replayed; Restart offsets the fresh journal's object names
	// past them so the rank's on-store series stays append-only.
	recoveredSegs int

	// ep is the rank's wire endpoint (network latency on Call).
	ep *transport.Wire
}

// newRank creates the metadata server for rank of cluster c, over the
// cluster's object store. The store starts with just the root directory;
// use Recover to load state from RADOS. Ranks other than 0 allocate
// server-assigned inode numbers from a disjoint band so partitions of
// one namespace never collide.
func newRank(c *Cluster, rank int) *Server {
	cpuName := "mds.cpu"
	if rank > 0 {
		cpuName = fmt.Sprintf("mds%d.cpu", rank)
	}
	name := fmt.Sprintf("mds.%d", rank)
	s := &Server{
		c:        c,
		eng:      c.eng,
		cfg:      c.cfg,
		store:    newRankStore(rank),
		obj:      c.obj,
		rank:     rank,
		dom:      c.eng.NewDomain(name),
		cpu:      c.eng.NewResource(cpuName, 1),
		sessions: make(map[string]bool),
		caps:     make(map[namespace.Ino]*dirCaps),
	}
	s.stream = newStreamState(s)
	s.merge = newMergeSched(s)
	s.imports = newImportSched(s)
	s.ep = transport.NewWire(name, c.cfg.NetLatency, s.handle)
	s.ep.Bind(s.dom)
	return s
}

// labelOf names the span and CPU-profile op for one endpoint message.
// Only called when tracing or the label plane is enabled.
func labelOf(msg any) string {
	if m, ok := msg.(message); ok {
		return m.label()
	}
	return fmt.Sprintf("msg.%T", msg)
}

// spanArgs is the transport span's one arg for an endpoint message, its
// "detail": an RPC's client and route, any other message's route; none
// when that is empty. Only called when tracing is enabled.
func spanArgs(msg any) []trace.KV {
	detail := ""
	if m, ok := msg.(*Request); ok {
		if detail = m.Client; m.Route != "" {
			detail += " " + m.Route
		}
	} else if m, ok := msg.(message); ok {
		detail = m.route()
	}
	if detail == "" {
		return nil
	}
	return []trace.KV{{Key: "detail", Val: detail}}
}

// heatSubtree resolves a route to its heat cell key: the placed subtree
// that owns it, so load aggregates per policy subtree.
func (s *Server) heatSubtree(route string) string { return s.c.table.SubtreeFor(route) }

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

// Post hands msg to this rank without charging wire latency: the message
// handler charges its own calibrated costs (bulk merges, control
// traffic). It implements transport.Endpoint.
func (s *Server) Post(p runtime.Task, msg any) any { return s.ep.Post(p, msg) }

// InjectFaults composes a fault interceptor around the rank's wire, so a
// chaos harness can drop, delay, or duplicate messages to this rank.
// Never called on calibrated runs — the wire is untouched by default.
func (s *Server) InjectFaults(ic transport.Interceptor) { s.ep.Wrap(ic) }

// handle is the rank's message dispatcher behind the wire. It spans every
// RPC and Post on the rank's track, with the message's client and route as
// the span's detail, without any op handler knowing about it, and with
// the label plane on it charges the handler's CPU samples to
// {proc: mds.N, op: labelOf(msg)}, giving the calling task its own label
// back on return. With tracing and labels off that costs two nil checks
// and no label is built.
func (s *Server) handle(p runtime.Task, msg any) any {
	l := obs.ProfLabels()
	if l != nil {
		obs.Switch(s.labels(l, msg))
	}
	var reply any
	if rec := s.eng.Tracer(); rec == nil {
		reply = s.dispatch(p, msg)
	} else {
		span := rec.Begin(int64(p.Now()), s.ep.Name(), "transport", labelOf(msg), spanArgs(msg)...)
		reply = s.dispatch(p, msg)
		rec.End(span, int64(p.Now()))
	}
	if l != nil {
		obs.Switch(l.Proc(p.Name()))
	}
	return reply
}

// labels is the prebuilt label set msg's handler runs under: an RPC's
// comes from the rank's per-op table, built on first use, so a labelled
// RPC builds nothing; any other message's from the plane's own cache.
func (s *Server) labels(l *obs.Labels, msg any) context.Context {
	req, ok := msg.(*Request)
	if !ok || req.Op >= opMax {
		return l.Op(s.ep.Name(), labelOf(msg))
	}
	if s.rpcLabels[req.Op] == nil {
		s.rpcLabels[req.Op] = l.Op(s.ep.Name(), req.label())
	}
	return s.rpcLabels[req.Op]
}

// labelSelf labels the calling task's samples {proc: mds.N, op} from now
// on: a rank's background loop — a stream scheduler, the journal
// dispatcher — names itself this way. With the label plane off it is one
// nil check.
func (s *Server) labelSelf(op string) {
	if l := obs.ProfLabels(); l != nil {
		obs.Switch(l.Op(s.ep.Name(), op))
	}
}

// dispatch serves one message: a bounced workload message gets its
// redirect, anything else its handler's reply.
func (s *Server) dispatch(p runtime.Task, msg any) any {
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

// bounce is the redirect for a workload message this rank must not
// serve, nil when it should serve it. One rule covers every handoff: the
// rank serves a message only if the subtree it addresses is not frozen
// here and the table says this rank owns it. A request is placed by its
// route, or without one by a path this rank knows for it (placement);
// one the rank can place nowhere is served, and answers ENOENT. The
// check costs no simulated time, and while nothing is placed or frozen
// rank 0 owns everything, so a one-rank run pays three tests.
func (s *Server) bounce(msg refusable) error {
	if s.rank == 0 && len(s.frozen) == 0 && s.c.table.Empty() {
		return nil
	}
	route := msg.route()
	if req, ok := msg.(*Request); ok {
		route = s.placement(req)
	}
	if route == "" {
		return nil
	}
	frozen := len(s.frozen) != 0 && s.frozenCovers(transport.Clean(route))
	rank := s.rank
	if !frozen {
		if rank = s.c.table.RankFor(route); rank == s.rank {
			return nil
		}
	}
	werr := &transport.WrongRankError{Path: route, Rank: rank, Frozen: frozen}
	s.metrics.Bounced++
	if rec := s.eng.Tracer(); rec != nil {
		rec.Record(int64(s.eng.Now()), s.ep.Name(), "mds", "bounce", werr.Error())
	}
	return werr
}

// placement is the path bounce places req by. A request without a route
// — addressed to a file, or to a directory the client knows no path for —
// is placed by the path of its parent, else of its inode, when this rank
// holds that inode, and by the inode's path when it left when an export
// of this rank took it away (exportedPath). A request addressed to an
// inode this rank does not hold is placed that way over its route too:
// another rank's record gave that route, and the inode has moved on from
// under it since.
func (s *Server) placement(req *Request) string {
	if req.Route != "" {
		if req.Ino == 0 || len(s.exported) == 0 {
			return req.Route
		}
		if _, err := s.store.Get(req.Ino); err == nil {
			return req.Route
		}
		return cmp.Or(s.exportedPath(req.Ino), req.Route)
	}
	ino := cmp.Or(req.Parent, req.Ino)
	if ino == 0 {
		return ""
	}
	if path, err := s.store.PathOf(ino); err == nil {
		return path
	}
	return s.exportedPath(ino)
}

// Store exposes the in-memory metadata store. Benchmarks and the monitor
// read it; clients must go through the endpoint.
func (s *Server) Store() *namespace.Store { return s.store }

// CPU exposes the MDS CPU resource for utilization reporting.
func (s *Server) CPU() runtime.Resource { return s.cpu }

// Metrics returns a snapshot of the server counters.
func (s *Server) Metrics() Metrics { return s.metrics }

// SetStream turns MDS journal streaming (the Stream mechanism) on or off
// for mutations that no registered subtree root governs.
func (s *Server) SetStream(on bool) { s.streamOn.Store(on) }

// Shutdown makes the server reject future requests.
func (s *Server) Shutdown() { s.stopped = true }

// Crash models the rank dying: every piece of volatile state — sessions,
// capabilities, the registrations its inodes hold, the unflushed journal
// tail, buffered merge chunks — is lost, while objects already in RADOS
// survive. The server rejects requests until Restart, which is handed the
// registrations back (monitor.Monitor.Restart). Streamed merges in
// flight are flagged aborted so the scheduler retires them, freeing their
// admission slots and unblocking any client parked in MergeWait with an
// error.
func (s *Server) Crash(p runtime.Task) {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	s.eng.Tracer().Record(int64(s.eng.Now()), s.ep.Name(), "mds", "crash", "")
	s.stopped = true
	s.sessions = make(map[string]bool)
	s.caps = make(map[namespace.Ino]*dirCaps)
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
	s.exported = nil

	// Retire in-flight streamed merges and imports on the old schedulers,
	// then start fresh.
	s.merge = s.merge.crash()
	s.imports = s.imports.crash()
}

// Restart brings a crashed rank back: the metadata store is rebuilt from
// RADOS (directory objects plus streamed journal replay), the rank adopts
// regs — the registrations whose roots it holds, which no object or
// journal event carries — and only then accepts requests again, so it
// never serves a registered subtree without its policy, owner and grant.
// A registered root the recovered store does not hold (a directory that
// died with the rank unsaved) is skipped, and nothing else changes. The
// fresh journal's segment objects continue the rank's series after the
// recovered ones instead of overwriting them.
func (s *Server) Restart(p runtime.Task, regs []AttachMsg) error {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	s.eng.Tracer().Record(int64(p.Now()), s.ep.Name(), "mds", "restart", "")
	if err := s.Recover(p); err != nil {
		return err
	}
	for _, reg := range regs {
		if in, err := s.store.Resolve(reg.Path); err == nil {
			if err := s.adopt(in.Ino, reg.Policy); err != nil {
				return err
			}
		}
	}
	s.stream.segBase = s.recoveredSegs
	s.stopped = false
	return nil
}

// OpenSession registers a client session. Additional active sessions add
// per-op bookkeeping overhead (lock contention, cap accounting), which is
// what limits scaling beyond pure CPU saturation (paper §II-A). It is the
// set-up form, for callers outside task context; tasks use Cluster.Mount.
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
// rank's endpoint. The reply is req's own storage (Request.reply).
func (s *Server) Submit(p runtime.Task, req *Request) *Reply {
	return s.ep.Call(p, req).(*Reply)
}

// serveRPC is the whole pipeline of one metadata RPC, in the order the
// request meets the rank. Every sleep, CPU acquisition and random draw
// below is part of the calibrated schedule: reordering them moves every
// table. The reply is the request's own storage, emptied first, so a
// second delivery of the same request leaves nothing of the first.
func (s *Server) serveRPC(p runtime.Task, req *Request) *Reply {
	reply := &req.reply
	*reply = Reply{}
	if s.stopped {
		reply.Err = ErrShutdown
		return reply
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
		// rank's CPU — the saturation signal a balancer watches. A request
		// without a route is counted where bounce places it: a file's
		// setattr heats its directory's cell.
		now := p.Now()
		s.heat.RecordOp(int64(now), s.heatSubtree(s.placement(req)), s.rank,
			req.Op.Mutates(), runtime.Duration(now-arrive))
	}
	p.Sleep(s.serviceTime(req.Op))
	var err error
	stream := s.streamOn.Load()
	if req.Op.Mutates() {
		// One PolicyRoot walk per mutation, from the parent or, for a
		// mutation without one (setattr), the inode: the registered root
		// that governs it decides Stream and the interfere check; a
		// mutation no registered root governs follows the switch.
		root, _ := s.store.PolicyRoot(cmp.Or(req.Parent, req.Ino))
		if root != nil && root.Policy != nil {
			stream = root.Policy.Streams()
		}
		err = s.checkInterfere(p, req, root)
	}
	switch {
	case err != nil: // rejected by an interfere-block policy
	case req.Op >= opMax || opTable[req.Op].handler == nil:
		err = fmt.Errorf("mds: %v: %w", req.Op, namespace.ErrInval)
	default:
		err = opTable[req.Op].handler(s, p, req)
	}
	reply.Err = err
	s.cpu.Release()

	// A successful mutation in a streaming subtree is appended to the MDS
	// journal after the op completes: encoding and segment bookkeeping
	// steal MDS CPU (MDSJournalOpTime), and the client additionally waits
	// for the safe ack (MDSJournalLatency, latency only).
	if err == nil && stream && req.Op.Mutates() {
		s.cpu.Acquire(p)
		p.Sleep(s.cfg.MDSJournalOpTime)
		s.stream.record(p, req, reply)
		s.cpu.Release()
		p.Sleep(s.cfg.MDSJournalLatency)
	}
	return reply
}

// inode fills r with in's attributes when err is nil, and returns err.
func (r *Reply) inode(in *namespace.Inode, err error) error {
	if err == nil {
		r.Ino, r.IsDir = in.Ino, in.IsDir()
		r.Mode, r.UID, r.GID = in.Mode, in.UID, in.GID
		r.Size, r.Mtime = in.Size, in.Mtime
	}
	return err
}

// checkInterfere rejects mutations into a blocked decoupled subtree,
// given the policy root that governs the request (nil for none).
func (s *Server) checkInterfere(p runtime.Task, req *Request, root *namespace.Inode) error {
	if root == nil || root.Ino == namespace.RootIno {
		return nil
	}
	owner := root.Policy.Owner
	if owner == "" || owner == req.Client || root.Policy.Interfere != policy.InterfereBlock {
		return nil
	}
	// Rejecting still costs cycles; when the MDS is underloaded this
	// overhead is visible (paper §V-B2).
	p.Sleep(s.cfg.MDSRejectTime)
	s.metrics.Rejected++
	return fmt.Errorf("mds: subtree decoupled by %s: %w", owner, namespace.ErrBusy)
}

// onSubtree is how the control-plane handlers that name a subtree by path
// run: holding the rank's CPU, one resolve charged, fn on the subtree's
// root inode. The CPU wait and the charge yield, and a crash meanwhile
// swaps the store for an empty one: the handler then answers
// ErrShutdown, as it would have before the wait, not a miss in the
// crashed rank's empty store.
func (s *Server) onSubtree(p runtime.Task, path string, fn func(root namespace.Ino) error) error {
	s.cpu.Acquire(p)
	defer s.cpu.Release()
	p.Sleep(s.serviceTime(OpResolve))
	if s.stopped {
		return ErrShutdown
	}
	in, err := s.store.Resolve(path)
	if err != nil {
		return err
	}
	return fn(in.Ino)
}

// adopt is everything a rank takes on about a registered subtree,
// whether the monitor registers it (attach), hands it back to the
// restarting rank (Restart) or the rank imports it (importCommit): the
// registration in the root's large inode — the policy, and the owner the
// interfere check reads — and the client's inode grant, which the
// monitor issued, reserved in the allocator. A nil registration
// recouples the subtree: the root keeps no policy, and the grant stays
// reserved, since the client may still hold inodes drawn from it.
func (s *Server) adopt(root namespace.Ino, pol *policy.Policy) error {
	if err := s.store.SetPolicy(root, pol); err != nil || pol == nil || pol.GrantN == 0 {
		return err
	}
	return s.store.ReserveRange(namespace.Ino(pol.GrantLo), pol.GrantN)
}

// Owner returns the client that decoupled the subtree rooted at ino.
func (s *Server) Owner(ino namespace.Ino) (string, bool) {
	in, err := s.store.Get(ino)
	if err != nil || in.Policy == nil || in.Policy.Owner == "" {
		return "", false
	}
	return in.Policy.Owner, true
}
