// Package client implements the Cudele client library (paper §III-A,
// §IV-B): the RPC path with capability-aware local lookups, and the
// decoupled-namespace mechanisms — Append Client Journal, Volatile Apply,
// Nonvolatile Apply, Local Persist, Global Persist — plus the namespace
// sync used for partial results (§V-B3).
//
// All operations run inside tasks and charge calibrated time; the
// metadata itself (journals, namespaces, objects) is real data
// manipulated for real. A client's state belongs to its own lock domain
// (runtime.Domain), which every task-taking operation enters and in
// which its background tasks run, so on the real backend clients work in
// parallel with each other and with the daemons they call.
package client

import (
	"errors"
	"fmt"
	gopath "path"

	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/stats"
	"cudele/internal/trace"
	"cudele/internal/transport"
)

// redirectRetryMax bounds retries of a bounced request, guarding against
// a routing bug looping forever; a real migration resolves in a handful
// of retry delays.
const redirectRetryMax = 512

// ErrNoInodes is returned when a decoupled client exhausts its allocated
// inode grant (the "Allocated Inodes" contract of §III-C).
var ErrNoInodes = errors.New("client: allocated inode grant exhausted")

// ErrNotDecoupled is returned when a decoupled-namespace operation is
// attempted without a decoupled subtree.
var ErrNotDecoupled = errors.New("client: no decoupled subtree")

// Stats counts client-side activity; the interference benchmarks sample
// these over time (Fig 3c).
type Stats struct {
	Creates       uint64 // successful creates (any mechanism)
	LocalLookups  uint64 // lookups satisfied from the local dentry cache
	RemoteLookups uint64 // lookup RPCs sent to the MDS
	RPCs          uint64 // total RPCs sent
	Appends       uint64 // journal events appended locally
	Rejected      uint64 // -EBUSY replies from blocked subtrees
	Redirects     uint64 // bounced requests retried

	// PeakTransferBytes is the largest single buffer a merge or persist
	// mechanism has put on the wire or disk at once, in nominal bytes
	// (events x JournalEventBytes, the unit every transfer is billed in —
	// never encoded bytes): the whole journal one-shot, one chunk
	// streamed. The merge pipeline's memory-boundedness claim is read off
	// this counter.
	PeakTransferBytes uint64
}

// Client is one storage client (application node).
type Client struct {
	eng  runtime.Runtime
	dom  runtime.Domain
	cfg  model.Config
	name string
	svc  *mds.Cluster
	obj  *rados.Cluster

	// localDisk models the node's own disk (Local Persist target).
	localDisk *runtime.Pipe
	// localJournal is the journal image Local Persist last wrote, nil
	// before the first.
	localJournal []byte
	// localDir, when set, makes Local Persist write a real fsynced
	// file under it instead of charging localDisk (see localstore.go).
	localDir string

	// RPC-path state: which directories we hold the read-caching cap
	// on, which are known shared, and our local dentry cache. The cache
	// holds no shared directory: its one reader is the cap-held
	// existence check, which a shared directory never takes again.
	caps   map[namespace.Ino]bool
	shared map[namespace.Ino]bool
	dcache map[namespace.Ino]*namespace.Dentries

	// req is the request buffer an RPC method fills in place (enter,
	// leave); nil while one holds it.
	req *mds.Request

	// paths remembers the full path of directories the client has
	// resolved or created, so a request addressed to one carries a route
	// hint for the rank-routing layer. A request addressed to a file (a
	// stat or setattr) or to a directory of unknown path carries none:
	// the cluster sends it by its inode's band (mds.Cluster.rankOf).
	paths map[namespace.Ino]string

	// Decoupled-namespace state.
	dec *decoupled

	// crashed is what survives a Crash about the decoupled subtree, so
	// Restart can re-attach to the same grant: the registration (path,
	// inode grant, consistency cell) lives on the monitor and MDS, not in
	// the client process. The allocation cursor is kept too — inodes
	// already drawn may be durable somewhere (a persisted journal, a
	// merged namespace), so a restarted client must never hand them out a
	// second time. The journal, local image and pre-images are gone.
	crashed *decoupled

	// failRollback, when non-nil, makes the next speculative rollback
	// die after that many undos (test hook; see FailRollbackAfter).
	failRollback *int

	// Namespace-sync state (partial updates, §V-B3).
	sync syncState

	stats Stats

	// latency records the round-trip time of every RPC the client
	// issues; createLatency records whole Create operations (including
	// any lookup RPC the capability state forces), for tail-latency
	// reporting.
	latency       stats.Histogram
	createLatency stats.Histogram
}

// decoupled holds the client's decoupled subtree context.
type decoupled struct {
	path string
	root namespace.Ino
	jrnl *journal.Journal
	// reg is the registration the client decoupled under: its inode
	// grant, which next walks, and its consistency cell, which Merge
	// merges in (blind, validated, or converging).
	reg  *policy.Policy
	next uint64
	// localDirs tracks directories created inside the decoupled
	// namespace (name resolution happens client-side).
	store *namespace.Store // client-local image of the subtree
	// mapping from the local image's inode numbers to granted inode
	// numbers is 1:1 — local creates draw from the grant directly.

	// undo holds, in ConsSpeculative, one pre-image per journaled op,
	// index for index with the journal: nil for a create or mkdir, a copy
	// of the inode an unlink removed. Rollback puts the rejected unlinks'
	// pre-images back. Empty in every other cell.
	undo []*namespace.Inode
}

// clearJournal empties the journal and its pre-images together.
func (d *decoupled) clearJournal() {
	d.jrnl.Reset()
	clear(d.undo)
	d.undo = d.undo[:0]
}

// New creates a client attached to the metadata cluster, which routes
// its messages by the placement table, and to the object store.
func New(eng runtime.Runtime, cfg model.Config, name string, svc *mds.Cluster, obj *rados.Cluster) *Client {
	c := &Client{
		eng:       eng,
		dom:       eng.NewDomain(name),
		cfg:       cfg,
		name:      name,
		svc:       svc,
		obj:       obj,
		localDisk: eng.NewPipe(name+".disk", cfg.LocalDiskBandwidth),
		req:       new(mds.Request),
	}
	c.dropCaches()
	return c
}

// dropCaches empties the RPC-path state — capabilities, dentry cache,
// route hints — to what a client with no session knows.
func (c *Client) dropCaches() {
	c.caps = make(map[namespace.Ino]bool)
	c.shared = make(map[namespace.Ino]bool)
	c.dcache = make(map[namespace.Ino]*namespace.Dentries)
	c.paths = map[namespace.Ino]string{namespace.RootIno: "/"}
}

// Name returns the client's session name.
func (c *Client) Name() string { return c.name }

// followRedirects issues send and, while the reply it reports is a
// bounce — the subtree is frozen mid-migration, or the request was routed
// before a migration committed — re-issues it after a short delay, routed
// by the table as it is then: the paper's client-transparent handoff. A
// bounced message never reached its handler, so re-sending it is safe.
func (c *Client) followRedirects(p runtime.Task, send func() error) {
	err := send()
	for tries := 0; tries < redirectRetryMax; tries++ {
		if _, ok := transport.IsRedirect(err); !ok {
			return
		}
		c.stats.Redirects++
		p.Sleep(c.cfg.MigrateRetryDelay)
		err = send()
	}
}

// noteTransfer records one transfer buffer's size for the peak stat.
func (c *Client) noteTransfer(bytes int64) {
	if bytes > 0 && uint64(bytes) > c.stats.PeakTransferBytes {
		c.stats.PeakTransferBytes = uint64(bytes)
	}
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats { return c.stats }

// CreateLatency returns the histogram of whole Create operations (lookup
// RPC, when one is needed, plus the create RPC).
func (c *Client) CreateLatency() *stats.Histogram { return &c.createLatency }

// Mount opens the client's MDS session.
func (c *Client) Mount(p runtime.Task) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.svc.Mount(p, c.name)
}

// Unmount closes the session and drops cached state.
func (c *Client) Unmount(p runtime.Task) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.svc.Unmount(p, c.name)
	c.dropCaches()
}

// Crash models the client process dying: the session, RPC caches, and
// the decoupled in-memory journal and subtree image are all lost. The
// simulated local disk survives (that is what Local Persist buys), as do
// global objects. The MDS-side session is reaped as a real MDS would
// time it out.
func (c *Client) Crash(p runtime.Task) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.eng.Tracer().Record(int64(c.eng.Now()), c.name, "client", "crash", "")
	c.svc.Unmount(p, c.name)
	c.dropCaches()
	if c.dec != nil {
		c.dec.jrnl, c.dec.store, c.dec.undo = nil, nil, nil
		c.crashed = c.dec
	}
	c.dec = nil
	c.sync = syncState{}
}

// Restart brings a crashed client back: a fresh mount, and — when a
// decoupled registration survived the crash — a fresh decoupled context
// on the same grant, with the allocation cursor where the old life left
// it. The journal starts empty; RecoverLocal reloads a locally persisted
// image into it.
func (c *Client) Restart(p runtime.Task) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.eng.Tracer().Record(int64(p.Now()), c.name, "client", "restart", "")
	c.Mount(p)
	old := c.crashed
	c.crashed = nil
	if old == nil {
		return nil
	}
	if err := c.AdoptGrant(p, old.path, old.reg); err != nil {
		return err
	}
	c.dec.next = old.next
	return nil
}

// notePath remembers a directory's path for route hints.
func (c *Client) notePath(ino namespace.Ino, path string) {
	if path != "" {
		c.paths[ino] = path
	}
}

// pathOf returns the path a request addressed to ino routes by: a known
// directory's, "" for anything else.
func (c *Client) pathOf(ino namespace.Ino) string { return c.paths[ino] }

// movePaths follows a renamed directory: the known path of dir and of
// every directory under it is rewritten to the new prefix, or dropped
// (routing by inode band) when newPath is unknown.
func (c *Client) movePaths(dir namespace.Ino, newPath string) {
	old, ok := c.paths[dir]
	if !ok {
		c.notePath(dir, newPath)
		return
	}
	for ino, p := range c.paths {
		switch {
		case !transport.HasPathPrefix(p, old):
		case newPath == "":
			delete(c.paths, ino)
		default:
			c.paths[ino] = newPath + p[len(old):]
		}
	}
}

// childPath joins a known directory path with the name of a directory
// in it; unknown parents yield "" (route to rank 0).
func (c *Client) childPath(dir namespace.Ino, name string) string {
	base := c.paths[dir]
	if base == "" {
		return ""
	}
	return gopath.Join(base, name)
}

// enter begins an RPC method: it enters the client's domain and takes
// the request buffer, emptied, to fill in place — or a fresh request
// while another task's RPC holds the buffer: on the real backend a Call
// gives up the client's domain, so a second task can enter the client
// mid-RPC. The reply lives in the request (mds.Request), so the method
// reads it before leave gives the request back.
func (c *Client) enter(p runtime.Task) *mds.Request {
	c.dom.Enter(p)
	req := c.req
	if req == nil {
		return new(mds.Request)
	}
	c.req = nil
	*req = mds.Request{}
	return req
}

// leave ends an RPC method: the request goes back as the buffer, unless
// one is back already, and the task leaves the client's domain.
func (c *Client) leave(p runtime.Task, req *mds.Request) {
	if c.req == nil {
		c.req = req
	}
	c.dom.Leave(p)
}

// submit sends one RPC, charging client-side overhead, and folds the
// reply's capability bits into local state.
func (c *Client) submit(p runtime.Task, req *mds.Request) *mds.Reply {
	reply, _ := c.call(p, req)
	return reply
}

// call is submit that also returns the clock reading that ended the RPC,
// for a caller timing a whole operation that ends with it.
func (c *Client) call(p runtime.Task, req *mds.Request) (*mds.Reply, runtime.Time) {
	start := p.Now()
	rec := c.eng.Tracer()
	span := trace.SpanID(-1)
	if rec != nil {
		span = rec.Begin(int64(start), c.name, "client", "rpc."+req.Op.String())
	}
	p.Sleep(c.cfg.ClientOpOverhead)
	req.Client = c.name
	var reply *mds.Reply
	c.followRedirects(p, func() error {
		c.stats.RPCs++
		reply = c.svc.Call(p, req).(*mds.Reply)
		// A retry goes by the route the redirect names: for a request
		// sent without one, the path the bouncing rank placed it by.
		if wr, ok := transport.IsRedirect(reply.Err); ok {
			req.Route = wr.Path
		}
		return reply.Err
	})
	// One reading ends both the span and the histogram's interval: on the
	// real backend each is a time.Since, and with no recorder End's
	// argument was read for nothing.
	end := p.Now()
	rec.End(span, int64(end))
	c.latency.Observe(runtime.Duration(end - start))
	if reply.CapGranted {
		c.caps[req.Parent] = true
	}
	if reply.CapLost {
		delete(c.caps, req.Parent)
		c.shared[req.Parent] = true
		delete(c.dcache, req.Parent)
	}
	if errors.Is(reply.Err, namespace.ErrBusy) {
		c.stats.Rejected++
	}
	return reply, end
}

func (c *Client) cacheDentry(dir namespace.Ino, name string, ino namespace.Ino) {
	if c.shared[dir] {
		return
	}
	d := c.dcache[dir]
	if d == nil {
		d = new(namespace.Dentries)
		c.dcache[dir] = d
	}
	d.Set(name, ino)
}

// Create makes a regular file via the RPCs mechanism. Per the paper's
// §IV-C: if the client caches the directory inode (holds the read cap) it
// can check existence locally and send a single create RPC; otherwise it
// must send a lookup RPC first.
func (c *Client) Create(p runtime.Task, dir namespace.Ino, name string, mode uint32) (namespace.Ino, error) {
	req := c.enter(p)
	defer c.leave(p, req)
	// The operation ends with its last RPC, so that RPC's closing clock
	// reading ends the interval too; one with no RPC took no time.
	start := p.Now()
	end := start
	defer func() { c.createLatency.Observe(runtime.Duration(end - start)) }()
	if c.caps[dir] && !c.shared[dir] {
		// Local existence check against the cached dentries.
		c.stats.LocalLookups++
		if _, exists := c.dcache[dir].Get(name); exists {
			return 0, fmt.Errorf("create %q: %w", name, namespace.ErrExist)
		}
	} else {
		c.stats.RemoteLookups++
		req.Op, req.Parent, req.Name, req.Route = mds.OpLookup, dir, name, c.pathOf(dir)
		var lk *mds.Reply
		lk, end = c.call(p, req)
		if lk.Err == nil {
			return 0, fmt.Errorf("create %q: %w", name, namespace.ErrExist)
		}
		if !errors.Is(lk.Err, namespace.ErrNotExist) {
			return 0, lookupErr(dir, name, lk.Err)
		}
	}
	req.Op, req.Parent, req.Name, req.Mode, req.Route = mds.OpCreate, dir, name, mode, c.pathOf(dir)
	var r *mds.Reply
	r, end = c.call(p, req)
	if r.Err != nil {
		return 0, r.Err
	}
	c.stats.Creates++
	c.cacheDentry(dir, name, r.Ino)
	return r.Ino, nil
}

// Mkdir makes a directory via RPC.
func (c *Client) Mkdir(p runtime.Task, dir namespace.Ino, name string, mode uint32) (namespace.Ino, error) {
	req := c.enter(p)
	defer c.leave(p, req)
	req.Op, req.Parent, req.Name, req.Mode, req.Route = mds.OpMkdir, dir, name, mode, c.pathOf(dir)
	r := c.submit(p, req)
	if r.Err != nil {
		return 0, r.Err
	}
	c.cacheDentry(dir, name, r.Ino)
	c.notePath(r.Ino, c.childPath(dir, name))
	return r.Ino, nil
}

// MkdirAll resolves or creates each directory along path via RPC.
func (c *Client) MkdirAll(p runtime.Task, path string, mode uint32) (namespace.Ino, error) {
	req := c.enter(p)
	defer c.leave(p, req)
	cur := namespace.RootIno
	curPath := "/"
	for it := namespace.SplitIter(path); ; {
		comp, ok := it.Next()
		if !ok {
			break
		}
		*req = mds.Request{Op: mds.OpLookup, Parent: cur, Name: comp, Route: curPath}
		lk := c.submit(p, req)
		if lk.Err == nil {
			if !lk.IsDir {
				return 0, fmt.Errorf("mkdirall %q: %q: %w", path, comp, namespace.ErrNotDir)
			}
			cur = lk.Ino
			curPath = gopath.Join(curPath, comp)
			c.notePath(cur, curPath)
			continue
		}
		if !errors.Is(lk.Err, namespace.ErrNotExist) {
			return 0, lookupErr(cur, comp, lk.Err)
		}
		req.Op, req.Mode = mds.OpMkdir, mode
		mk := c.submit(p, req)
		if mk.Err != nil {
			return 0, mk.Err
		}
		cur = mk.Ino
		curPath = gopath.Join(curPath, comp)
		c.notePath(cur, curPath)
	}
	return cur, nil
}

// Lookup resolves one dentry via RPC, bypassing the local cache (an
// explicit stat(2)-like existence check).
func (c *Client) Lookup(p runtime.Task, dir namespace.Ino, name string) (namespace.Ino, error) {
	req := c.enter(p)
	defer c.leave(p, req)
	c.stats.RemoteLookups++
	req.Op, req.Parent, req.Name, req.Route = mds.OpLookup, dir, name, c.pathOf(dir)
	r := c.submit(p, req)
	if r.Err != nil {
		return 0, lookupErr(dir, name, r.Err)
	}
	if r.IsDir {
		c.notePath(r.Ino, c.childPath(dir, name))
	}
	return r.Ino, nil
}

// lookupErr names the entry in a lookup RPC's miss, which the rank
// answers with the bare sentinel (ErrNotExist, or ErrNotDir for a parent
// that is no directory) so that a miss nobody reports allocates nothing.
// Any other error passes unchanged.
func lookupErr(dir namespace.Ino, name string, err error) error {
	if err == namespace.ErrNotExist || err == namespace.ErrNotDir {
		return namespace.LookupError(dir, name, err)
	}
	return err
}

// Resolve walks a path on the server.
func (c *Client) Resolve(p runtime.Task, path string) (namespace.Ino, error) {
	req := c.enter(p)
	defer c.leave(p, req)
	req.Op, req.Path, req.Route = mds.OpResolve, path, path
	r := c.submit(p, req)
	if r.Err != nil {
		return 0, r.Err
	}
	if r.IsDir {
		c.notePath(r.Ino, path)
	}
	return r.Ino, nil
}

// ReadDir lists a directory via RPC (the heavy "ls" of §V-B3). The names
// are sorted. The slice is the rank's listing snapshot, shared with every
// other reader of that listing (namespace.Store.ReadDir): do not sort,
// store into or append in place to it. It never changes after it is
// returned; a caller that keeps it keeps the directory as it was.
func (c *Client) ReadDir(p runtime.Task, dir namespace.Ino) ([]string, error) {
	req := c.enter(p)
	defer c.leave(p, req)
	req.Op, req.Parent, req.Route = mds.OpReadDir, dir, c.pathOf(dir)
	r := c.submit(p, req)
	return r.Names, r.Err
}

// Unlink removes a file via RPC.
func (c *Client) Unlink(p runtime.Task, dir namespace.Ino, name string) error {
	req := c.enter(p)
	defer c.leave(p, req)
	req.Op, req.Parent, req.Name, req.Route = mds.OpUnlink, dir, name, c.pathOf(dir)
	r := c.submit(p, req)
	if r.Err == nil {
		c.dcache[dir].Delete(name)
	}
	return r.Err
}

// Rename moves a dentry via RPC. Cross-rank renames are not supported:
// the request routes by the source parent's subtree. A moved directory's
// known paths move with it; a file has no route hint to move.
func (c *Client) Rename(p runtime.Task, dir namespace.Ino, name string, newDir namespace.Ino, newName string) error {
	req := c.enter(p)
	defer c.leave(p, req)
	req.Op, req.Parent, req.Name, req.NewParent, req.NewName, req.Route = mds.OpRename, dir, name, newDir, newName, c.pathOf(dir)
	r := c.submit(p, req)
	if r.Err != nil {
		return r.Err
	}
	c.dcache[dir].Delete(name)
	c.cacheDentry(newDir, newName, r.Ino)
	if r.IsDir {
		c.movePaths(r.Ino, c.childPath(newDir, newName))
	}
	return nil
}

// SetAttr updates attributes via RPC.
func (c *Client) SetAttr(p runtime.Task, ino namespace.Ino, mode, uid, gid uint32, size uint64, mtime int64) error {
	req := c.enter(p)
	defer c.leave(p, req)
	req.Op, req.Ino, req.Route = mds.OpSetAttr, ino, c.pathOf(ino)
	req.Mode, req.UID, req.GID, req.Size, req.Mtime = mode, uid, gid, size, mtime
	r := c.submit(p, req)
	return r.Err
}

// Stat fetches attributes via RPC. The reply is returned by value: the
// rank answers in the request buffer, which the client's next RPC fills
// again.
func (c *Client) Stat(p runtime.Task, ino namespace.Ino) (mds.Reply, error) {
	req := c.enter(p)
	defer c.leave(p, req)
	req.Op, req.Ino, req.Route = mds.OpGetAttr, ino, c.pathOf(ino)
	r := c.submit(p, req)
	if r.Err != nil {
		return mds.Reply{}, r.Err
	}
	return *r, nil
}

// HoldsCap reports whether the client believes it holds the read cap on
// dir (Fig 3c's "local lookups" regime).
func (c *Client) HoldsCap(dir namespace.Ino) bool { return c.caps[dir] && !c.shared[dir] }
