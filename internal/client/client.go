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
	"time"

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

// Service is the client's contract with the metadata service: a message
// endpoint plus session, stream, and routing-refresh control. Both a
// single *mds.Server and a multi-rank *mds.Portal satisfy it; the client
// never holds a concrete server, so it works unchanged against any
// number of ranks.
type Service interface {
	transport.Endpoint
	// Mount and Unmount open and close the named client's session from
	// the client's task.
	Mount(p runtime.Task, client string)
	Unmount(p runtime.Task, client string)
	SetStream(on bool)
	// Refresh re-syncs the service's routing view after a redirect reply
	// reported a newer cluster-map epoch. A single server no-ops.
	Refresh()
}

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
	Redirects     uint64 // bounced requests retried after a table refresh

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
	svc  Service
	obj  *rados.Cluster

	// localDisk models the node's own disk (Local Persist target).
	localDisk  runtime.Pipe
	localFiles map[string][]byte
	// localDir, when set, makes Local Persist write a real fsynced
	// file under it instead of charging localDisk (see localstore.go).
	localDir string

	// RPC-path state: which directories we hold the read-caching cap
	// on, which are known shared, and our local dentry cache.
	caps   map[namespace.Ino]bool
	shared map[namespace.Ino]bool
	dcache map[namespace.Ino]map[string]namespace.Ino

	// paths remembers the full path of directories the client has
	// resolved or created, and files maps each file it created to its
	// parent's path and its name, so requests carry a route hint for the
	// rank-routing layer. A file's path is joined only when a request
	// routes by it. Unknown inodes route to rank 0.
	paths map[namespace.Ino]string
	files map[namespace.Ino]fileHint

	// Decoupled-namespace state.
	dec *decoupled

	// crashed is what survives a Crash about the decoupled subtree, so
	// Restart can re-attach to the same grant: the registration (path,
	// inode grant, consistency cell) lives on the monitor and MDS, not in
	// the client process. The allocation cursor is kept too — inodes
	// already drawn may be durable somewhere (a persisted journal, a
	// merged namespace), so a restarted client must never hand them out a
	// second time. The journal, local image and undo log are gone.
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
	path    string
	root    namespace.Ino
	jrnl    *journal.Journal
	grantLo uint64
	grantN  uint64
	next    uint64
	// localDirs tracks directories created inside the decoupled
	// namespace (name resolution happens client-side).
	store *namespace.Store // client-local image of the subtree
	// mapping from the local image's inode numbers to granted inode
	// numbers is 1:1 — local creates draw from the grant directly.

	// mode is the subtree's consistency cell; it selects the merge path
	// (blind, speculative, or convergent). The zero value ConsInvisible
	// merges blind, so pre-existing flows are untouched.
	mode policy.Consistency
	// undo is the speculative-mode undo log: one EvUndo record per
	// journaled op, indexed 1:1 with the journal, consulted when the MDS
	// rejects predictions at merge time. nil outside ConsSpeculative.
	undo *journal.Journal
}

// New creates a client attached to a metadata service and object store.
// svc may be a single *mds.Server or a routed *mds.Portal.
func New(eng runtime.Runtime, cfg model.Config, name string, svc Service, obj *rados.Cluster) *Client {
	c := &Client{
		eng:        eng,
		dom:        eng.NewDomain(name),
		cfg:        cfg,
		name:       name,
		svc:        svc,
		obj:        obj,
		localDisk:  eng.NewPipe(name+".disk", cfg.LocalDiskBandwidth),
		localFiles: make(map[string][]byte),
	}
	c.dropCaches()
	return c
}

// dropCaches empties the RPC-path state — capabilities, dentry cache,
// route hints — to what a client with no session knows.
func (c *Client) dropCaches() {
	c.caps = make(map[namespace.Ino]bool)
	c.shared = make(map[namespace.Ino]bool)
	c.dcache = make(map[namespace.Ino]map[string]namespace.Ino)
	c.paths = map[namespace.Ino]string{namespace.RootIno: "/"}
	c.files = make(map[namespace.Ino]fileHint)
}

// fileHint is a created file's route hint: its parent directory and its
// name, joined into a path only when a request addressed to the file
// routes by it.
type fileHint struct {
	dir  namespace.Ino
	name string
}

// Name returns the client's session name.
func (c *Client) Name() string { return c.name }

// redirectDelay is the pause before refreshing the routing table and
// retrying a bounced request.
func (c *Client) redirectDelay() runtime.Duration {
	if d := c.cfg.MigrateRetryDelay; d > 0 {
		return d
	}
	return 2 * time.Millisecond
}

// followRedirects issues send and, while the reply it reports is a
// bounce — the subtree is frozen mid-migration, or our routing table is
// stale — re-issues it after a short delay and a table refresh: the
// paper's client-transparent handoff. A bounced message never reached
// its handler, so re-sending it is safe.
func (c *Client) followRedirects(p runtime.Task, send func() error) {
	err := send()
	for tries := 0; tries < redirectRetryMax; tries++ {
		if _, ok := transport.IsRedirect(err); !ok {
			return
		}
		c.stats.Redirects++
		p.Sleep(c.redirectDelay())
		c.svc.Refresh()
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

// LocalDisk exposes the client's disk pipe for utilization reporting.
func (c *Client) LocalDisk() runtime.Pipe { return c.localDisk }

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
	if fl := c.eng.Flight(); fl != nil {
		fl.Record(int64(c.eng.Now()), c.name, "client", "crash", "")
	}
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
	if fl := c.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), c.name, "client", "restart", "")
	}
	c.Mount(p)
	old := c.crashed
	c.crashed = nil
	if old == nil {
		return nil
	}
	if err := c.AdoptGrant(p, old.path, namespace.Ino(old.grantLo), old.grantN); err != nil {
		return err
	}
	c.dec.next = old.next
	return c.SetMergeMode(old.mode)
}

// notePath remembers a directory's path for route hints.
func (c *Client) notePath(ino namespace.Ino, path string) {
	if path != "" {
		c.paths[ino] = path
	}
}

// pathOf returns the known path of an inode, "" when unknown. A created
// file's is its parent's path joined with its name.
func (c *Client) pathOf(ino namespace.Ino) string {
	if p, ok := c.paths[ino]; ok {
		return p
	}
	if h, ok := c.files[ino]; ok {
		return c.childPath(h.dir, h.name)
	}
	return ""
}

// childPath joins a known directory path with a child name; unknown
// parents yield "" (route to rank 0).
func (c *Client) childPath(dir namespace.Ino, name string) string {
	base := c.paths[dir]
	if base == "" {
		return ""
	}
	return gopath.Join(base, name)
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
	}
	if errors.Is(reply.Err, namespace.ErrBusy) {
		c.stats.Rejected++
	}
	return reply, end
}

func (c *Client) cacheDentry(dir namespace.Ino, name string, ino namespace.Ino) {
	m := c.dcache[dir]
	if m == nil {
		m = make(map[string]namespace.Ino)
		c.dcache[dir] = m
	}
	m[name] = ino
}

// Create makes a regular file via the RPCs mechanism. Per the paper's
// §IV-C: if the client caches the directory inode (holds the read cap) it
// can check existence locally and send a single create RPC; otherwise it
// must send a lookup RPC first.
func (c *Client) Create(p runtime.Task, dir namespace.Ino, name string, mode uint32) (namespace.Ino, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	// The operation ends with its last RPC, so that RPC's closing clock
	// reading ends the interval too; one with no RPC took no time.
	start := p.Now()
	end := start
	defer func() { c.createLatency.Observe(runtime.Duration(end - start)) }()
	if c.caps[dir] && !c.shared[dir] {
		// Local existence check against the cached dentries.
		c.stats.LocalLookups++
		if _, exists := c.dcache[dir][name]; exists {
			return 0, fmt.Errorf("create %q: %w", name, namespace.ErrExist)
		}
	} else {
		c.stats.RemoteLookups++
		var lk *mds.Reply
		lk, end = c.call(p, &mds.Request{Op: mds.OpLookup, Parent: dir, Name: name, Route: c.pathOf(dir)})
		if lk.Err == nil {
			return 0, fmt.Errorf("create %q: %w", name, namespace.ErrExist)
		}
		if !errors.Is(lk.Err, namespace.ErrNotExist) {
			return 0, lk.Err
		}
	}
	route := c.pathOf(dir)
	var r *mds.Reply
	r, end = c.call(p, &mds.Request{Op: mds.OpCreate, Parent: dir, Name: name, Mode: mode, Route: route})
	if r.Err != nil {
		return 0, r.Err
	}
	c.stats.Creates++
	c.cacheDentry(dir, name, r.Ino)
	if route != "" { // a file under an unknown parent keeps routing to rank 0
		c.files[r.Ino] = fileHint{dir, name}
	}
	return r.Ino, nil
}

// Mkdir makes a directory via RPC.
func (c *Client) Mkdir(p runtime.Task, dir namespace.Ino, name string, mode uint32) (namespace.Ino, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	r := c.submit(p, &mds.Request{Op: mds.OpMkdir, Parent: dir, Name: name, Mode: mode, Route: c.pathOf(dir)})
	if r.Err != nil {
		return 0, r.Err
	}
	c.cacheDentry(dir, name, r.Ino)
	c.notePath(r.Ino, c.childPath(dir, name))
	return r.Ino, nil
}

// MkdirAll resolves or creates each directory along path via RPC.
func (c *Client) MkdirAll(p runtime.Task, path string, mode uint32) (namespace.Ino, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	cur := namespace.RootIno
	curPath := "/"
	for it := namespace.SplitIter(path); ; {
		comp, ok := it.Next()
		if !ok {
			break
		}
		lk := c.submit(p, &mds.Request{Op: mds.OpLookup, Parent: cur, Name: comp, Route: curPath})
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
			return 0, lk.Err
		}
		mk := c.submit(p, &mds.Request{Op: mds.OpMkdir, Parent: cur, Name: comp, Mode: mode, Route: curPath})
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
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.stats.RemoteLookups++
	r := c.submit(p, &mds.Request{Op: mds.OpLookup, Parent: dir, Name: name, Route: c.pathOf(dir)})
	if r.Err != nil {
		return 0, r.Err
	}
	if r.IsDir {
		c.notePath(r.Ino, c.childPath(dir, name))
	}
	return r.Ino, nil
}

// Resolve walks a path on the server.
func (c *Client) Resolve(p runtime.Task, path string) (namespace.Ino, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	r := c.submit(p, &mds.Request{Op: mds.OpResolve, Path: path, Route: path})
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
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	r := c.submit(p, &mds.Request{Op: mds.OpReadDir, Parent: dir, Route: c.pathOf(dir)})
	return r.Names, r.Err
}

// Unlink removes a file via RPC.
func (c *Client) Unlink(p runtime.Task, dir namespace.Ino, name string) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	r := c.submit(p, &mds.Request{Op: mds.OpUnlink, Parent: dir, Name: name, Route: c.pathOf(dir)})
	if r.Err == nil {
		delete(c.dcache[dir], name)
	}
	return r.Err
}

// Rename moves a dentry via RPC. Cross-rank renames are not supported:
// the request routes by the source parent's subtree.
func (c *Client) Rename(p runtime.Task, dir namespace.Ino, name string, newDir namespace.Ino, newName string) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	r := c.submit(p, &mds.Request{Op: mds.OpRename, Parent: dir, Name: name, NewParent: newDir, NewName: newName, Route: c.pathOf(dir)})
	if r.Err == nil {
		delete(c.dcache[dir], name)
		c.cacheDentry(newDir, newName, 0)
	}
	return r.Err
}

// SetAttr updates attributes via RPC.
func (c *Client) SetAttr(p runtime.Task, ino namespace.Ino, mode, uid, gid uint32, size uint64, mtime int64) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	r := c.submit(p, &mds.Request{Op: mds.OpSetAttr, Ino: ino, Mode: mode, UID: uid, GID: gid, Size: size, Mtime: mtime, Route: c.pathOf(ino)})
	return r.Err
}

// Stat fetches attributes via RPC.
func (c *Client) Stat(p runtime.Task, ino namespace.Ino) (*mds.Reply, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	r := c.submit(p, &mds.Request{Op: mds.OpGetAttr, Ino: ino, Route: c.pathOf(ino)})
	if r.Err != nil {
		return nil, r.Err
	}
	return r, nil
}

// HoldsCap reports whether the client believes it holds the read cap on
// dir (Fig 3c's "local lookups" regime).
func (c *Client) HoldsCap(dir namespace.Ino) bool { return c.caps[dir] && !c.shared[dir] }
