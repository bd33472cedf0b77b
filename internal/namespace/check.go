package namespace

import (
	"fmt"
	"path"
	"sort"
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
// root names an inode other than the root that names it back, no file has
// dentries, as many inodes are reached as the store holds, and no two
// grants overlap. Counting is enough, with no set of the inodes reached:
// an inode names one directory and one name in it (Parent, Name), a
// directory holds a name once, and the root is reached only as the start,
// so the first inode reached twice would be reached twice through one
// dentry — whose directory was then reached twice before it.
func (s *Store) scan(root *Inode) bool {
	reached := 1
	return s.scanDir(root, &reached) && reached == s.inodes.len() && s.grantOverlaps() == nil
}

// scanDir scans in and the entries under it in position order, adds the
// inodes it reaches below in to *reached, and reports whether they are
// sound.
func (s *Store) scanDir(in *Inode, reached *int) bool {
	if !in.IsDir() || in.frag == nil {
		return in.NumChildren() == 0
	}
	for name, ci := range in.frag.ents.All() {
		child := s.inodes.get(ci)
		if ci == RootIno || child == nil || child.Parent != in.Ino || child.Name != name {
			return false
		}
		*reached++
		// A file is checked here, not by a call: the scan is one
		// dependent load per inode, and a call per file doubled it.
		if child.IsDir() {
			if !s.scanDir(child, reached) {
				return false
			}
		} else if child.NumChildren() != 0 {
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
	reachable := newInoSet(&s.inodes)
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

// inoSet is a set of numbers of inodes a table holds: a bitmap word per
// page slot of the table, laid out run by run like the table's pages, so
// a number's word is found by the table's own search and two indexes. The
// table must not change while the set is in use.
type inoSet struct {
	tab   *inoTable
	words [][]uint64 // words[i][off] is the word of page tab.runs[i].lo+off
}

// newInoSet returns an empty set of numbers of inodes t holds.
func newInoSet(t *inoTable) inoSet {
	slots := 0
	for _, r := range t.runs {
		slots += len(r.pages)
	}
	all, words := make([]uint64, slots), make([][]uint64, len(t.runs))
	for i, r := range t.runs {
		words[i], all = all[:len(r.pages):len(r.pages)], all[len(r.pages):]
	}
	return inoSet{tab: t, words: words}
}

// word returns the word of ino, the number of an inode the table holds.
func (b *inoSet) word(ino Ino) *uint64 {
	key := ino >> pageBits
	i := b.tab.search(key) - 1
	return &b.words[i][key-b.tab.runs[i].lo]
}

// add puts ino in the set and reports whether it was absent.
func (b *inoSet) add(ino Ino) bool {
	w, bit := b.word(ino), uint64(1)<<(ino%pageSize)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// has reports whether ino is in the set.
func (b *inoSet) has(ino Ino) bool {
	return *b.word(ino)&(1<<(ino%pageSize)) != 0
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
			dir, name := path.Split(p.Path)
			parent, err := s.Resolve(dir)
			if name == "" || err != nil {
				continue
			}
			in.Parent = parent.Ino
			in.Name = name
			actions = append(actions, fmt.Sprintf("relinked ino %d as %s", p.Ino, p.Path))
		case "dangling-dentry":
			dir, name := path.Split(p.Path)
			parent, err := s.Resolve(dir)
			if name == "" || err != nil {
				continue
			}
			parent.frag.unlink(name)
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
