package mds

import (
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
	// every client route through router, which reads it.
	table  *transport.Table
	router *transport.Router

	// migrations counts committed online migrations. While it is zero
	// the ranks skip the routed-before-commit ownership check, keeping
	// never-migrated (calibrated) runs byte-identical. Rank handlers read
	// it from their own domains, hence atomic.
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
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		s := newRank(c, i)
		c.ranks = append(c.ranks, s)
		eps[i] = s.ep
	}
	c.router = transport.NewRouter("mds", c.table, eps, RouteOf)
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

// Name implements transport.Endpoint: the cluster is the client's routed
// endpoint, so a client routes by the same table the ranks check.
func (c *Cluster) Name() string { return c.router.Name() }

// Call implements transport.Endpoint.
func (c *Cluster) Call(p runtime.Task, msg any) any { return c.router.Call(p, msg) }

// Post implements transport.Endpoint.
func (c *Cluster) Post(p runtime.Task, msg any) any { return c.router.Post(p, msg) }

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

// SetStream toggles journal streaming on every rank (the Stream
// mechanism is a namespace-level durability setting).
func (c *Cluster) SetStream(on bool) {
	for _, s := range c.ranks {
		s.SetStream(on)
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

// Place exports the subtree rooted at path to the given rank and
// records the placement in the table. The subtree's directory objects
// (plus the ancestor chain, so the path resolves) are copied through the
// same serialized form that recovery uses; the source rank keeps its
// copy, which becomes stale and unreachable once routing points at the
// new owner — exactly how CephFS subtree exports hand off authority. The
// copy and the table flip happen in one Exclusive section, so no request
// is served between them.
// A file is never placed, on either branch: a request addressed to a
// file routes by its parent directory's path (client.Client.pathOf).
func (c *Cluster) Place(p runtime.Task, path string, rank int) error {
	if rank < 0 || rank >= len(c.ranks) {
		return fmt.Errorf("mds: place %s: rank %d out of range [0,%d)", path, rank, len(c.ranks))
	}
	var err error
	c.eng.Exclusive(p, func() {
		src, dst := c.ranks[c.table.RankFor(path)], c.ranks[rank]
		if src != dst {
			err = exportSubtree(src.store, dst.store, path)
		} else if in, rerr := src.store.Resolve(path); rerr == nil && !in.IsDir() {
			err = fmt.Errorf("subtree %q: %w", path, namespace.ErrNotDir)
		}
		if err == nil {
			c.table.Place(path, rank)
		}
	})
	if err != nil {
		return fmt.Errorf("mds: place %s on rank %d: %w", path, rank, err)
	}
	return nil
}

// CommitMigration finalizes a committed online migration in the table:
// routing repoints at the new rank. The monitor calls this once the
// export-commit record has landed.
func (c *Cluster) CommitMigration(path string, rank int) {
	c.table.Place(path, rank)
	c.migrations.Add(1)
}

// Migrations reports the number of committed subtree migrations across
// the cluster's lifetime.
func (c *Cluster) Migrations() int { return int(c.migrations.Load()) }

// exportSubtree copies the subtree at path, led by its ancestor chain so
// the path resolves, from src to dst via the serialized directory-object
// form.
func exportSubtree(src, dst *namespace.Store, path string) error {
	dirs, _, err := src.Subtree(path)
	if err != nil {
		return err
	}
	for _, ino := range dirs {
		data, err := src.EncodeDir(ino)
		if err != nil {
			return err
		}
		obj, err := namespace.DecodeDir(data)
		if err != nil {
			return err
		}
		if err := dst.InstallDir(obj); err != nil {
			return err
		}
	}
	return nil
}
