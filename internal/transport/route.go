package transport

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cudele/internal/runtime"
)

// Table maps namespace subtrees to metadata ranks. The monitor owns the
// authoritative copy; ranks and clients hold replicas that the monitor
// refreshes on every cluster-map change, stamped with the map epoch.
// Paths with no placement fall through to rank 0, which is why a
// single-rank deployment behaves exactly like the unrouted system.
//
// A table is read from every daemon's domain — rank handlers resolve
// ownership, client portals route and refresh — while the monitor
// publishes into it, so its contents are an immutable snapshot behind an
// atomic pointer: readers load it without locking or allocating, and
// every mutation (rare, control-plane) installs a modified copy.
type Table struct {
	snap atomic.Pointer[tableSnap]
	mu   sync.Mutex // serializes mutators' copy-and-install
}

// tableSnap is one immutable version of a table's contents.
type tableSnap struct {
	epoch uint64

	// places holds the placed subtrees longest path first (equal lengths
	// in path order), so the first one that covers a path is its longest
	// placed prefix: two distinct prefixes that both cover one path on
	// component boundaries differ in length.
	places []placement

	// frags maps a split directory to the ranks its dentry fragments
	// hash onto: dentry name → frags[dir][FragIndex(name, len(...))].
	// Splitting lets one hot directory span ranks (CephFS dirfrags).
	frags map[string][]int
}

// placement is one placed subtree: its clean path and its rank.
type placement struct {
	path string
	rank int
}

// NewTable returns an empty table: everything routes to rank 0.
func NewTable() *Table {
	t := &Table{}
	t.snap.Store(&tableSnap{})
	return t
}

// mutate installs a copy of the current snapshot changed by edit. The
// copy shares the slice and map edit does not replace.
func (t *Table) mutate(edit func(s *tableSnap)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	next := *t.snap.Load()
	edit(&next)
	t.snap.Store(&next)
}

// withoutPlace returns a private copy of s's placements minus path's.
func (s *tableSnap) withoutPlace(path string) []placement {
	out := make([]placement, 0, len(s.places)+1)
	for _, pl := range s.places {
		if pl.path != path {
			out = append(out, pl)
		}
	}
	return out
}

// placed returns the placement covering path with the longest prefix,
// nil when none does.
func (s *tableSnap) placed(path string) *placement {
	for i := range s.places {
		if HasPathPrefix(path, s.places[i].path) {
			return &s.places[i]
		}
	}
	return nil
}

// Epoch returns the cluster-map epoch the table was last synced at.
func (t *Table) Epoch() uint64 { return t.snap.Load().epoch }

// SetEpoch stamps the table with a cluster-map epoch.
func (t *Table) SetEpoch(e uint64) {
	t.mutate(func(s *tableSnap) { s.epoch = e })
}

// Place assigns the subtree rooted at path to rank.
func (t *Table) Place(path string, rank int) {
	path = Clean(path)
	t.mutate(func(s *tableSnap) {
		s.places = append(s.withoutPlace(path), placement{path, rank})
		slices.SortFunc(s.places, func(a, b placement) int {
			if c := cmp.Compare(len(b.path), len(a.path)); c != 0 {
				return c
			}
			return strings.Compare(a.path, b.path)
		})
	})
}

// RankFor returns the rank owning path: the longest placed prefix wins,
// with component-boundary matching ("/job1" does not own "/job10").
// Unplaced paths belong to rank 0. Paths strictly under a split
// directory that is at least as deep as the best placed prefix route by
// dentry-fragment hash instead.
func (t *Table) RankFor(path string) int { return t.snap.Load().rankFor(path) }

func (t *tableSnap) rankFor(path string) int {
	path = Clean(path)
	best, bestLen := 0, -1
	if pl := t.placed(path); pl != nil {
		best, bestLen = pl.rank, len(pl.path)
	}
	if dir, comp := t.fragFor(path, bestLen); dir != "" {
		ranks := t.frags[dir]
		return ranks[FragIndex(comp, len(ranks))]
	}
	return best
}

// SubtreeFor returns the placed subtree that owns path — the longest
// placed prefix, mirroring RankFor's resolution — or "/" when no
// placement covers it. Heat accounting keys cells by this, so load
// aggregates per policy subtree instead of per leaf path. Paths under a
// split directory report "<dir>#<frag>" so each fragment's heat is its
// own cell.
func (t *Table) SubtreeFor(path string) string {
	s := t.snap.Load()
	path = Clean(path)
	best, bestLen := "/", -1
	if pl := s.placed(path); pl != nil {
		best, bestLen = pl.path, len(pl.path)
	}
	if dir, comp := s.fragFor(path, bestLen); dir != "" {
		return fmt.Sprintf("%s#%d", dir, FragIndex(comp, len(s.frags[dir])))
	}
	return best
}

// fragFor returns the deepest split directory that path lives strictly
// under — provided that split is at least as deep as the best placed
// prefix (placedLen) — plus the first path component below it, which is
// the dentry whose hash picks the fragment. ("", "") when no split
// applies.
func (t *tableSnap) fragFor(path string, placedLen int) (dir, comp string) {
	if len(t.frags) == 0 { // the usual table: skip the map walk
		return "", ""
	}
	bestLen := -1
	for d := range t.frags {
		if len(d) >= placedLen && len(d) > bestLen &&
			HasPathPrefix(path, d) && len(path) > len(d) {
			dir, bestLen = d, len(d)
		}
	}
	if dir == "" {
		return "", ""
	}
	rest := path[len(dir):]
	if dir == "/" {
		rest = path
	}
	rest = strings.TrimPrefix(rest, "/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return dir, rest
}

// FragIndex hashes a dentry name onto one of ways fragments (FNV-1a).
// Deterministic across every replica of the table, so any holder routes
// a dentry to the same fragment.
func FragIndex(name string, ways int) int {
	if ways <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % uint32(ways))
}

// SplitDir registers a directory as fragment-split across ranks: dentry
// name n of dir routes to ranks[FragIndex(n, len(ranks))]. An empty or
// single-element ranks removes the split.
func (t *Table) SplitDir(dir string, ranks []int) {
	dir = Clean(dir)
	t.mutate(func(s *tableSnap) {
		frags := make(map[string][]int, len(s.frags)+1)
		for d, r := range s.frags {
			frags[d] = r
		}
		if len(ranks) < 2 {
			delete(frags, dir)
		} else {
			frags[dir] = append([]int(nil), ranks...)
		}
		s.frags = frags
	})
}

// FragSplits returns a copy of the split-directory map.
func (t *Table) FragSplits() map[string][]int {
	frags := t.snap.Load().frags
	if len(frags) == 0 {
		return nil
	}
	out := make(map[string][]int, len(frags))
	for d, ranks := range frags {
		out[d] = append([]int(nil), ranks...)
	}
	return out
}

// Paths returns the placed paths in sorted order, for display.
func (t *Table) Paths() []string {
	places := t.snap.Load().places
	out := make([]string, len(places))
	for i, pl := range places {
		out[i] = pl.path
	}
	slices.Sort(out)
	return out
}

// CopyFrom replaces the table's contents with src's placements, splits,
// and epoch — the monitor's publish step. Snapshots are immutable, so
// the replica simply adopts src's current one.
func (t *Table) CopyFrom(src *Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snap.Store(src.snap.Load())
}

// Clean normalizes a subtree path to the form the table keys use: one
// leading slash, no trailing ones, "/" for the empty path. Every holder
// of subtree paths (the table, the cluster's ownership registry, a rank's
// freeze marks) cleans with it, so their keys always agree.
func Clean(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	for len(p) > 1 && p[len(p)-1] == '/' {
		p = p[:len(p)-1]
	}
	return p
}

// HasPathPrefix reports whether path is prefix or lives under it, on
// component boundaries ("/job1" does not cover "/job10").
func HasPathPrefix(path, prefix string) bool {
	if prefix == "/" {
		return true
	}
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/'
}

// Router is an Endpoint that forwards each message to the rank owning
// its route key.
type Router struct {
	name  string
	table *Table
	ranks []Endpoint
	key   func(msg any) string
}

// NewRouter builds a router over the given rank endpoints. key extracts
// the routing path from a message; messages with an empty route go to
// rank 0.
func NewRouter(name string, table *Table, ranks []Endpoint, key func(msg any) string) *Router {
	return &Router{name: name, table: table, ranks: ranks, key: key}
}

// Name implements Endpoint.
func (r *Router) Name() string { return r.name }

// pick resolves the owning rank's endpoint for a message.
func (r *Router) pick(msg any) Endpoint {
	rank := r.table.RankFor(r.key(msg))
	if rank < 0 || rank >= len(r.ranks) {
		rank = 0
	}
	return r.ranks[rank]
}

// Call implements Endpoint.
func (r *Router) Call(p runtime.Task, msg any) any { return r.pick(msg).Call(p, msg) }

// Post implements Endpoint.
func (r *Router) Post(p runtime.Task, msg any) any { return r.pick(msg).Post(p, msg) }
