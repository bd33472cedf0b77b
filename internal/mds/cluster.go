package mds

import (
	"cmp"
	"fmt"
	"sync/atomic"

	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/obs"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// Cluster is a multi-rank metadata service: N Servers partitioning one
// global namespace by subtree, behind a shared routing table. The paper
// evaluates a single MDS and names subtree partitioning as the scaling
// path (§VI); Cluster is that path. With one rank it degenerates to
// exactly the single-server system — the routing table is empty, every
// message lands on rank 0, and no extra virtual time is charged.
type Cluster struct {
	eng runtime.Runtime
	cfg model.Config
	obj *rados.Cluster

	ranks []*Server

	// dom is the control-plane lock domain: it owns every write to the
	// placement table. The monitor runs in it (Domain), so cluster-map
	// changes exclude one another; ranks and clients only ever read the
	// table, which is safe from any domain (see
	// transport.Table).
	dom runtime.Domain

	// table is the placement map — the one record of which rank owns a
	// subtree. The ranks check ownership against it, and the monitor and
	// every client route by it (Call, Post).
	table *transport.Table

	// migrations counts committed handoffs, for reports only. The
	// monitor commits them from its domain while reports read from
	// anywhere, hence atomic.
	migrations atomic.Int64
}

// NewCluster builds n metadata ranks over one object store. n < 1 is
// treated as 1.
func NewCluster(eng runtime.Runtime, cfg model.Config, obj *rados.Cluster, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{
		eng: eng, cfg: cfg, obj: obj,
		dom:   eng.NewDomain("monitor"),
		table: transport.NewTable(),
	}
	for i := 0; i < n; i++ {
		c.ranks = append(c.ranks, newRank(c, i))
	}
	return c
}

// Ranks returns the number of metadata ranks.
func (c *Cluster) Ranks() int { return len(c.ranks) }

// Config returns the cluster's calibrated cost model.
func (c *Cluster) Config() model.Config { return c.cfg }

// Rank returns the i'th metadata server.
func (c *Cluster) Rank(i int) *Server { return c.ranks[i] }

// Table returns the cluster's placement table.
func (c *Cluster) Table() *transport.Table { return c.table }

// Domain returns the control-plane lock domain, which the monitor shares.
func (c *Cluster) Domain() runtime.Domain { return c.dom }

// Call sends msg to the rank that owns it and waits for the reply,
// charging one network round trip: the RPCs mechanism. A client routes by
// the same table the ranks check.
func (c *Cluster) Call(p runtime.Task, msg any) any { return c.rankOf(msg).ep.Call(p, msg) }

// Post hands msg to the rank that owns it without charging wire latency;
// the handler charges its own calibrated costs (bulk merges, control
// traffic). It implements transport.Endpoint for windowed streams.
func (c *Cluster) Post(p runtime.Task, msg any) any { return c.rankOf(msg).ep.Post(p, msg) }

// rankOf is the rank a message goes to: the table's owner of the
// message's route. An RPC without a route — one addressed to a file, or
// to a directory whose path the client does not know — goes to the rank
// whose band allocated the inode it addresses (rankInoFloor): that rank
// holds the inode, or redirects to the owner by a path it still knows
// (Server.bounce). Anything that is not a message, any other message
// without a route, and a rank the cluster lacks (a grant inode's band,
// 2^40 and up) all go to rank 0.
func (c *Cluster) rankOf(msg any) *Server {
	r := 0
	if req, ok := msg.(*Request); ok && req.Route == "" {
		r = int(uint64(cmp.Or(req.Parent, req.Ino)) >> 32)
	} else if m, ok := msg.(message); ok {
		r = c.table.RankFor(m.route())
	}
	if r > 0 && r < len(c.ranks) {
		return c.ranks[r]
	}
	return c.ranks[0]
}

// Mount opens the client's session on every rank, from the client's
// task, inside each rank's domain: a mounted client may touch any
// subtree, so each rank carries its bookkeeping overhead, keeping
// per-rank service times comparable to the single-MDS system.
func (c *Cluster) Mount(p runtime.Task, client string) {
	for _, s := range c.ranks {
		s.dom.Enter(p)
		s.OpenSession(client)
		s.dom.Leave(p)
	}
}

// Unmount closes the client's session on every rank, from a task.
func (c *Cluster) Unmount(p runtime.Task, client string) {
	for _, s := range c.ranks {
		s.dom.Enter(p)
		s.CloseSession(client)
		s.dom.Leave(p)
	}
}

// SetHeat installs one heat accountant on every rank, keyed by the
// cluster's placement table so cells aggregate per placed subtree. Pass
// nil to disable accounting.
func (c *Cluster) SetHeat(h *obs.Heat) {
	for _, s := range c.ranks {
		s.heat = h
	}
}

// Pin records the subtree at path in the table on rank, which must own
// it now: a placement that moves nothing (a placement onto another rank
// is an online migration, monitor.Migrate's handoff). The pin still
// matters, because heat cells key by placed subtrees. A file is refused,
// as a migration refuses one, and leaves the table as it was, so a file is
// never a placement root: its path and its directory's name the same
// owner, heat cell and freeze. The checks
// and the pin run inside rank's lock domain, so no request rank serves
// lands between them. A subtree that is not rank's by then, or that rank
// has frozen for a handoff, is refused with namespace.ErrBusy: the
// caller's view of the owner is stale, and pinning would either move the
// subtree without its inodes or be undone by the handoff's flip.
func (c *Cluster) Pin(p runtime.Task, path string, rank int) error {
	s := c.ranks[rank]
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	if c.table.RankFor(path) != rank || s.frozenCovers(transport.Clean(path)) {
		return fmt.Errorf("mds: pin %s on rank %d: %w", path, rank, namespace.ErrBusy)
	}
	if in, err := s.store.Resolve(path); err == nil && !in.IsDir() {
		return fmt.Errorf("mds: pin %s on rank %d: %w", path, rank, namespace.ErrNotDir)
	}
	c.table.Place(path, rank)
	return nil
}

// CommitMigration finalizes a committed handoff of the subtree at path
// from rank src to rank dst in the table: routing repoints the subtree,
// and every subtree placed under it on src, at dst. The source exported
// and pruned all it held under path, nested pins included; a subtree
// placed under it on a third rank was not the source's to move. The
// monitor calls this once the export-commit record has landed.
func (c *Cluster) CommitMigration(path string, src, dst int) {
	path = transport.Clean(path)
	for _, sub := range c.table.Paths() {
		if sub != path && transport.HasPathPrefix(sub, path) && c.table.RankFor(sub) == src {
			c.table.Place(sub, dst)
		}
	}
	c.table.Place(path, dst)
	c.migrations.Add(1)
}

// Migrations reports the number of committed handoffs across the
// cluster's lifetime: migrations and placements onto another rank.
func (c *Cluster) Migrations() int { return int(c.migrations.Load()) }
