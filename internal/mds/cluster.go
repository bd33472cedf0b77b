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

	// dom is the control-plane lock domain: it owns the subtree registry
	// and every write to the authoritative table. The monitor runs in it
	// (Domain), so cluster-map changes exclude one another; ranks and
	// client portals only ever read the table, which is safe from any
	// domain (see transport.Table).
	dom runtime.Domain

	// table is the rank-side authoritative placement map; client
	// portals hold replicas refreshed by the monitor. It is the routing
	// projection of the subtree ownership entities below.
	table  *transport.Table
	router *transport.Router

	// subtrees is the first-class ownership registry: one entity per
	// placed subtree, carrying its lifecycle state (subtree.go).
	subtrees map[string]*Subtree

	// migrations counts committed online migrations and splits. While it
	// is zero the ranks skip the stale-routing ownership check entirely,
	// keeping never-migrated (calibrated) runs byte-identical. Rank
	// handlers read it from their own domains, hence atomic.
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
		dom:      eng.NewDomain("monitor"),
		table:    transport.NewTable(),
		subtrees: make(map[string]*Subtree),
	}
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		s := NewRank(eng, cfg, obj, i)
		s.SetOwnership(func(path string) (int, uint64, bool) {
			if c.migrations.Load() == 0 {
				return 0, 0, false
			}
			return c.table.RankFor(path), c.table.Epoch(), true
		})
		c.ranks = append(c.ranks, s)
		eps[i] = s.Endpoint()
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

// Table returns the cluster's authoritative placement table.
func (c *Cluster) Table() *transport.Table { return c.table }

// Domain returns the control-plane lock domain, which the monitor shares.
func (c *Cluster) Domain() runtime.Domain { return c.dom }

// Endpoint returns the cluster-side routed endpoint (used by the
// monitor, which always sees the authoritative table).
func (c *Cluster) Endpoint() transport.Endpoint { return c.router }

// SetStream toggles journal streaming on every rank.
func (c *Cluster) SetStream(on bool) {
	for _, s := range c.ranks {
		s.SetStream(on)
	}
}

// SetHeat installs one heat accountant on every rank, keyed by the
// cluster's authoritative placement table so cells aggregate per placed
// subtree. Pass nil to disable accounting.
func (c *Cluster) SetHeat(h *obs.Heat) {
	for _, s := range c.ranks {
		s.SetHeat(h, c.table.SubtreeFor)
	}
}

// OpenSession opens the client's session on every rank: a mounted client
// may touch any subtree, so each rank carries its bookkeeping overhead,
// keeping per-rank service times comparable to the single-MDS system.
// It is the set-up form, for callers outside task context; tasks use
// Mount.
func (c *Cluster) OpenSession(client string) {
	for _, s := range c.ranks {
		s.OpenSession(client)
	}
}

// Place exports the subtree rooted at path to the given rank and
// records the placement in the authoritative table. The subtree's
// directory objects (plus the ancestor chain, so the path resolves) are
// copied through the same serialized form that recovery uses; the
// source rank keeps its copy, which becomes stale and unreachable once
// routing points at the new owner — exactly how CephFS subtree exports
// hand off authority. The copy and the table flip happen in one step
// with both ranks and the control plane held together, so no request is
// served between them.
func (c *Cluster) Place(p runtime.Task, path string, rank int) error {
	if rank < 0 || rank >= len(c.ranks) {
		return fmt.Errorf("mds: place %s: rank %d out of range [0,%d)", path, rank, len(c.ranks))
	}
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	src := c.ranks[c.table.RankFor(path)]
	dst := c.ranks[rank]
	var err error
	c.eng.Together(p, []runtime.Domain{c.dom, src.dom, dst.dom}, func() {
		if src != dst {
			if err = exportSubtree(src.store, dst.store, path); err != nil {
				return
			}
		}
		c.table.Place(path, rank)
		st := c.SubtreeFor(path)
		st.Rank, st.State, st.Epoch = rank, SubtreeOwned, c.table.Epoch()
	})
	if err != nil {
		return fmt.Errorf("mds: place %s on rank %d: %w", path, rank, err)
	}
	return nil
}

// CommitMigration finalizes a committed online migration in the
// authoritative state: the entity returns to owned on the new rank and
// the routing table repoints. The monitor calls this between the
// export-commit record landing and the epoch publish.
func (c *Cluster) CommitMigration(path string, rank int, epoch uint64) {
	c.table.Place(path, rank)
	st := c.SubtreeFor(path)
	st.Rank, st.State, st.Epoch = rank, SubtreeOwned, epoch
	st.Moves++
	c.migrations.Add(1)
}

// SplitCommit registers a directory-fragment split in the authoritative
// table. Like CommitMigration it flips the migrations flag, enabling
// the stale-routing bounce.
func (c *Cluster) SplitCommit(dir string, ranks []int) {
	c.table.SplitDir(dir, ranks)
	c.migrations.Add(1)
}

// ReplicateSubtree copies the subtree at path (with its ancestor chain)
// from its owning rank onto dst's store without changing placement —
// the setup step of a directory-fragment split, after which hash
// routing lets every fragment rank serve its share of the dentries.
func (c *Cluster) ReplicateSubtree(p runtime.Task, path string, dst int) error {
	if dst < 0 || dst >= len(c.ranks) {
		return fmt.Errorf("mds: replicate %s: rank %d out of range [0,%d)", path, dst, len(c.ranks))
	}
	src := c.ranks[c.table.RankFor(path)]
	if src == c.ranks[dst] {
		return nil
	}
	var err error
	c.eng.Together(p, []runtime.Domain{src.dom, c.ranks[dst].dom}, func() {
		err = exportSubtree(src.store, c.ranks[dst].store, path)
	})
	return err
}

// exportSubtree copies the subtree at path, led by its ancestor chain so
// the path resolves, from src to dst via the serialized directory-object
// form.
func exportSubtree(src, dst *namespace.Store, path string) error {
	dirs, err := src.SubtreeDirs(path)
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

// Portal is one client's view of the metadata cluster: a routed endpoint
// over a placement-table replica, plus the session fan-out. It
// implements the client package's Service interface.
type Portal struct {
	cl     *Cluster
	table  *transport.Table
	router *transport.Router
}

// Portal builds a fresh client view seeded from the authoritative
// table. Subscribe the portal's Table to the monitor to keep it synced.
func (c *Cluster) Portal() *Portal {
	t := transport.NewTable()
	t.CopyFrom(c.table)
	eps := make([]transport.Endpoint, len(c.ranks))
	for i, s := range c.ranks {
		eps[i] = s.Endpoint()
	}
	return &Portal{cl: c, table: t, router: transport.NewRouter("mds", t, eps, RouteOf)}
}

// Table returns the portal's placement-table replica.
func (pt *Portal) Table() *transport.Table { return pt.table }

// Name implements transport.Endpoint.
func (pt *Portal) Name() string { return pt.router.Name() }

// Call implements transport.Endpoint.
func (pt *Portal) Call(p runtime.Task, msg any) any { return pt.router.Call(p, msg) }

// Post implements transport.Endpoint.
func (pt *Portal) Post(p runtime.Task, msg any) any { return pt.router.Post(p, msg) }

// Mount opens the client's session on every rank, from the client's task.
func (pt *Portal) Mount(p runtime.Task, client string) {
	for _, s := range pt.cl.ranks {
		s.Mount(p, client)
	}
}

// Unmount closes the client's session on every rank, from a task.
func (pt *Portal) Unmount(p runtime.Task, client string) {
	for _, s := range pt.cl.ranks {
		s.Unmount(p, client)
	}
}

// SetStream toggles journal streaming cluster-wide (the Stream
// mechanism is a namespace-level durability setting).
func (pt *Portal) SetStream(on bool) { pt.cl.SetStream(on) }

// Refresh re-syncs the portal's routing replica from the authoritative
// table — the client's reaction to a redirect reply: by the time a rank
// bounces a request, the monitor has already published the newer map.
func (pt *Portal) Refresh() { pt.table.CopyFrom(pt.cl.table) }
