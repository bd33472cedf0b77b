package mds

import (
	"fmt"
	"sort"

	"cudele/internal/transport"
)

// SubtreeState is the ownership lifecycle state of a placed subtree.
// Ownership always cycles owned → exporting (on the migration source,
// mirrored as importing on the destination) → owned; aborts return the
// entity to owned on the source without an epoch change.
type SubtreeState uint8

const (
	// SubtreeOwned: exactly one rank serves the subtree.
	SubtreeOwned SubtreeState = iota
	// SubtreeExporting: the owner has frozen the subtree and is
	// streaming it to another rank; requests bounce with a Frozen
	// redirect until the handoff commits or aborts.
	SubtreeExporting
	// SubtreeImporting: the destination is installing streamed state;
	// it does not serve the subtree until the monitor publishes the new
	// epoch.
	SubtreeImporting
)

func (st SubtreeState) String() string {
	switch st {
	case SubtreeOwned:
		return "owned"
	case SubtreeExporting:
		return "exporting"
	case SubtreeImporting:
		return "importing"
	}
	return fmt.Sprintf("SubtreeState(%d)", uint8(st))
}

// Subtree is the first-class ownership record of one placed subtree: the
// unit of placement, migration, and balancing. The cluster keeps one per
// placed path; the routing table is the projection of these entities
// that ranks and clients route by.
type Subtree struct {
	Path  string
	Rank  int          // owning rank (last committed)
	State SubtreeState // lifecycle position
	Epoch uint64       // cluster-map epoch of the last ownership change
	Moves int          // completed migrations of this subtree
}

// SubtreeFor returns the ownership entity for path, creating an owned
// record from the routing table's current resolution if none exists yet
// (setup-time placements predate the entity registry).
func (c *Cluster) SubtreeFor(path string) *Subtree {
	path = transport.Clean(path)
	if st, ok := c.subtrees[path]; ok {
		return st
	}
	st := &Subtree{Path: path, Rank: c.table.RankFor(path), State: SubtreeOwned}
	c.subtrees[path] = st
	return st
}

// Subtrees returns every registered ownership entity, sorted by path.
func (c *Cluster) Subtrees() []*Subtree {
	out := make([]*Subtree, 0, len(c.subtrees))
	for _, st := range c.subtrees {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Migrations reports the number of committed subtree migrations across
// the cluster's lifetime.
func (c *Cluster) Migrations() int { return int(c.migrations.Load()) }
