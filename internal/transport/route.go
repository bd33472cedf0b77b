package transport

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Table maps namespace subtrees to metadata ranks. A metadata cluster
// holds exactly one: the ranks check ownership against it and every
// client routes by it. Paths with no placement fall through to
// rank 0, which is why a single-rank deployment behaves exactly like the
// unrouted system.
//
// A table is read from every daemon's domain — rank handlers resolve
// ownership, clients route — while the control plane places
// subtrees in it, so its contents are an immutable snapshot behind an
// atomic pointer: readers load it without locking or allocating, and
// every mutation (rare, control-plane) installs a modified copy.
type Table struct {
	snap atomic.Pointer[tableSnap]
	mu   sync.Mutex // serializes mutators' copy-and-install
}

// tableSnap is one immutable version of a table's contents.
type tableSnap struct {
	// places holds the placed subtrees longest path first (equal lengths
	// in path order), so the first one that covers a path is its longest
	// placed prefix: two distinct prefixes that both cover one path on
	// component boundaries differ in length.
	places []placement
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
// copy shares the slice edit does not replace.
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
// Unplaced paths belong to rank 0.
func (t *Table) RankFor(path string) int {
	if pl := t.snap.Load().placed(Clean(path)); pl != nil {
		return pl.rank
	}
	return 0
}

// SubtreeFor returns the placed subtree that owns path — the longest
// placed prefix, mirroring RankFor's resolution — or "/" when no
// placement covers it. Heat accounting keys cells by this, so load
// aggregates per policy subtree instead of per leaf path.
func (t *Table) SubtreeFor(path string) string {
	if pl := t.snap.Load().placed(Clean(path)); pl != nil {
		return pl.path
	}
	return "/"
}

// Empty reports whether nothing is placed: every path routes to rank 0.
func (t *Table) Empty() bool { return len(t.snap.Load().places) == 0 }

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
