package namespace

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements namespace consistency checking — the forward scrub
// a production metadata server runs to validate its own structures
// (CephFS's "scrub" / cephfs-data-scan). The Cudele paper leans on
// CephFS's recovery tooling; a reproduction that merges journals from
// decoupled clients needs a way to prove the merged tree is still sound.

// Problem is one inconsistency found by Check.
type Problem struct {
	Kind string // short machine-readable class
	Ino  Ino
	Path string // best-effort path, may be empty for orphans
	Info string
}

func (p Problem) String() string {
	return fmt.Sprintf("%-18s ino=%-6d %-30s %s", p.Kind, p.Ino, p.Path, p.Info)
}

// Check scrubs the store and returns every structural inconsistency:
//
//	orphan-inode      an inode not reachable from the root
//	bad-parent        a child whose Parent field disagrees with the tree
//	bad-name          a child whose Name field disagrees with its dentry
//	dangling-dentry   a dentry pointing at a missing inode
//	dup-ino           an inode reachable through two dentries
//	file-children     a regular file carrying dentries
//	reserved-overlap  overlapping client inode-range grants
//
// A healthy store returns nil. It is proved healthy by one scan of the
// tree in dentry position order, which lists no directory and looks no
// name up; only a store the scan fails is walked again, in sorted order,
// to report what is wrong in an order that does not depend on the
// dentry tables' histories.
func (s *Store) Check() []Problem {
	root := s.inodes.get(RootIno)
	if root == nil {
		return []Problem{{Kind: "no-root", Ino: RootIno, Info: "store has no root inode"}}
	}
	if s.scan(root) {
		return nil
	}
	return s.report(root)
}

// scan reports whether the store is healthy: every dentry reached from
// root names an inode that names it back, no inode is reached twice, no
// file has dentries, every inode is reached, and no two grants overlap.
func (s *Store) scan(root *Inode) bool {
	seen := newInoSet(len(s.inodes.pages))
	seen.add(root.Ino)
	return s.scanDir(root, &seen) && seen.n == s.inodes.len() && s.grantOverlaps() == nil
}

// scanDir scans the entries under in, which seen holds, in position
// order, and reports whether they are sound.
func (s *Store) scanDir(in *Inode, seen *inoSet) bool {
	if !in.IsDir() {
		return in.NumChildren() == 0
	}
	if in.frag == nil {
		return true
	}
	for name, ci := range in.frag.ents.All() {
		child := s.inodes.get(ci)
		if child == nil || child.Parent != in.Ino || child.Name != name || !seen.add(ci) || !s.scanDir(child, seen) {
			return false
		}
	}
	return true
}

// report walks the tree from root in sorted order and returns every
// problem, in the order `cudele scrub` prints them. A path is built only
// for a problem reported: the walk holds the rest in its buffer.
func (s *Store) report(root *Inode) []Problem {
	var problems []Problem
	reachable := newInoSet(len(s.inodes.pages))
	_ = s.walkSorted("/", root, func(p []byte, dir *Inode, name string, ino Ino, in *Inode) (bool, error) {
		if dir != nil {
			if in == nil {
				problems = append(problems, Problem{
					Kind: "dangling-dentry", Ino: ino, Path: string(p),
					Info: "dentry references missing inode",
				})
				return false, nil
			}
			if in.Parent != dir.Ino {
				problems = append(problems, Problem{
					Kind: "bad-parent", Ino: ino, Path: string(p),
					Info: fmt.Sprintf("inode says parent=%d, dentry in %d", in.Parent, dir.Ino),
				})
			}
			if in.Name != name {
				problems = append(problems, Problem{
					Kind: "bad-name", Ino: ino, Path: string(p),
					Info: fmt.Sprintf("inode says name=%q, dentry says %q", in.Name, name),
				})
			}
		}
		if !reachable.add(in.Ino) {
			problems = append(problems, Problem{
				Kind: "dup-ino", Ino: in.Ino, Path: string(p),
				Info: "inode reachable through multiple dentries",
			})
			return false, nil
		}
		if !in.IsDir() {
			if in.NumChildren() > 0 {
				problems = append(problems, Problem{
					Kind: "file-children", Ino: in.Ino, Path: string(p),
					Info: fmt.Sprintf("regular file with %d dentries", in.NumChildren()),
				})
			}
			return false, nil
		}
		return true, nil
	})

	// Anything not reached is orphaned.
	var orphans []*Inode
	s.inodes.each(func(in *Inode) {
		if !reachable.has(in.Ino) {
			orphans = append(orphans, in)
		}
	})
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].Ino < orphans[j].Ino })
	for _, in := range orphans {
		problems = append(problems, Problem{
			Kind: "orphan-inode", Ino: in.Ino,
			Info: fmt.Sprintf("name=%q parent=%d not reachable from root", in.Name, in.Parent),
		})
	}

	return append(problems, s.grantOverlaps()...)
}

// grantOverlaps reports each grant that overlaps the one before it in
// order of first inode. Overlapping grants would let two decoupled
// clients mint the same inode numbers.
func (s *Store) grantOverlaps() []Problem {
	var problems []Problem
	ranges := append([]inoRange(nil), s.reserved...)
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].lo < ranges[j].lo })
	for i := 1; i < len(ranges); i++ {
		if ranges[i].lo < ranges[i-1].hi {
			problems = append(problems, Problem{
				Kind: "reserved-overlap", Ino: ranges[i].lo,
				Info: fmt.Sprintf("grant [%d,%d) overlaps [%d,%d)",
					ranges[i].lo, ranges[i].hi, ranges[i-1].lo, ranges[i-1].hi),
			})
		}
	}
	return problems
}

// inoSet is a set of inode numbers: a bitmap word per inode-index page
// (ino >> pageBits), found through a map by the page's key, and the word
// touched last remembered, so the next number of a run costs a shift, a
// compare and a bit test.
type inoSet struct {
	index   map[Ino]int // word of each page key
	words   []uint64
	lastKey Ino
	last    int
	n       int // numbers held
}

// newInoSet returns an empty set sized for numbers on pages pages.
func newInoSet(pages int) inoSet {
	return inoSet{index: make(map[Ino]int, pages), words: make([]uint64, 0, pages), lastKey: noPage}
}

// word returns the index of ino's word, adding a zero word for a page the
// set has not seen.
func (b *inoSet) word(ino Ino) int {
	if key := ino >> pageBits; key != b.lastKey {
		w, ok := b.index[key]
		if !ok {
			w = len(b.words)
			b.words = append(b.words, 0)
			b.index[key] = w
		}
		b.lastKey, b.last = key, w
	}
	return b.last
}

// add puts ino in the set and reports whether it was absent.
func (b *inoSet) add(ino Ino) bool {
	w, bit := b.word(ino), uint64(1)<<(ino%pageSize)
	if b.words[w]&bit != 0 {
		return false
	}
	b.words[w] |= bit
	b.n++
	return true
}

// has reports whether ino is in the set.
func (b *inoSet) has(ino Ino) bool {
	return b.words[b.word(ino)]&(1<<(ino%pageSize)) != 0
}

// MustHealthy panics if the store has inconsistencies; tests and
// assertions use it after merges.
func (s *Store) MustHealthy() {
	if problems := s.Check(); len(problems) > 0 {
		lines := make([]string, len(problems))
		for i, p := range problems {
			lines[i] = p.String()
		}
		panic("namespace: unhealthy store:\n" + strings.Join(lines, "\n"))
	}
}

// Repair fixes the problems Check can fix mechanically and returns what it
// did:
//
//   - orphan inodes are re-linked under /lost+found (created on demand)
//   - bad-parent and bad-name inodes are rewritten to match their dentry
//   - dangling dentries are removed
//   - file-children maps are cleared
//
// Overlapping grants are reported but not repaired (they need operator
// policy). Repair returns the actions taken, in order.
func (s *Store) Repair() []string {
	var actions []string
	problems := s.Check()

	// Fix direction: dentries are authoritative (they are what paths
	// resolve through).
	for _, p := range problems {
		switch p.Kind {
		case "bad-parent", "bad-name":
			in := s.inodes.get(p.Ino)
			if in == nil {
				continue
			}
			// Find the dentry that references it along the reported
			// path.
			parts := SplitPath(p.Path)
			if len(parts) == 0 {
				continue
			}
			parentPath := "/" + strings.Join(parts[:len(parts)-1], "/")
			parent, err := s.Resolve(parentPath)
			if err != nil {
				continue
			}
			in.Parent = parent.Ino
			in.Name = parts[len(parts)-1]
			actions = append(actions, fmt.Sprintf("relinked ino %d as %s", p.Ino, p.Path))
		case "dangling-dentry":
			parts := SplitPath(p.Path)
			if len(parts) == 0 {
				continue
			}
			parentPath := "/" + strings.Join(parts[:len(parts)-1], "/")
			parent, err := s.Resolve(parentPath)
			if err != nil {
				continue
			}
			parent.frag.unlink(parts[len(parts)-1])
			actions = append(actions, fmt.Sprintf("removed dangling dentry %s", p.Path))
		case "file-children":
			in := s.inodes.get(p.Ino)
			if in != nil {
				in.frag = nil // files keep no fragment; its snapshot goes with it
				actions = append(actions, fmt.Sprintf("cleared dentries on file ino %d", p.Ino))
			}
		}
	}

	// Orphans last, so re-parenting above can rescue some first.
	for _, p := range s.Check() {
		if p.Kind != "orphan-inode" {
			continue
		}
		in := s.inodes.get(p.Ino)
		if in == nil {
			continue
		}
		lost, err := s.Resolve("/lost+found")
		if err != nil {
			lost, err = s.Mkdir(RootIno, "lost+found", CreateAttrs{Mode: 0700})
			if err != nil {
				continue
			}
		}
		name := fmt.Sprintf("ino-%d", p.Ino)
		if _, exists := lost.frag.lookup(name); exists {
			continue
		}
		in.Parent = lost.Ino
		in.Name = name
		lost.dentries().link(name, in.Ino)
		actions = append(actions, fmt.Sprintf("moved orphan ino %d to /lost+found/%s", p.Ino, name))
	}
	s.version++
	return actions
}
