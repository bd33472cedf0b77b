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
// A healthy store returns an empty slice.
func (s *Store) Check() []Problem {
	var problems []Problem

	// Walk the tree from the root, validating dentries.
	reachable := make(map[Ino]bool, s.inodes.len())
	var walk func(dir *Inode, path string)
	walk = func(dir *Inode, path string) {
		if reachable[dir.Ino] {
			problems = append(problems, Problem{
				Kind: "dup-ino", Ino: dir.Ino, Path: path,
				Info: "inode reachable through multiple dentries",
			})
			return
		}
		reachable[dir.Ino] = true
		if !dir.IsDir() {
			if dir.NumChildren() > 0 {
				problems = append(problems, Problem{
					Kind: "file-children", Ino: dir.Ino, Path: path,
					Info: fmt.Sprintf("regular file with %d dentries", dir.NumChildren()),
				})
			}
			return
		}
		_ = dir.frag.each(&s.lists, func(name string, ci Ino) error {
			childPath := path + "/" + name
			if path == "/" {
				childPath = "/" + name
			}
			child := s.inodes.get(ci)
			if child == nil {
				problems = append(problems, Problem{
					Kind: "dangling-dentry", Ino: ci, Path: childPath,
					Info: "dentry references missing inode",
				})
				return nil
			}
			if child.Parent != dir.Ino {
				problems = append(problems, Problem{
					Kind: "bad-parent", Ino: ci, Path: childPath,
					Info: fmt.Sprintf("inode says parent=%d, dentry in %d", child.Parent, dir.Ino),
				})
			}
			if child.Name != name {
				problems = append(problems, Problem{
					Kind: "bad-name", Ino: ci, Path: childPath,
					Info: fmt.Sprintf("inode says name=%q, dentry says %q", child.Name, name),
				})
			}
			walk(child, childPath)
			return nil
		})
	}
	root := s.inodes.get(RootIno)
	if root == nil {
		return []Problem{{Kind: "no-root", Ino: RootIno, Info: "store has no root inode"}}
	}
	walk(root, "/")

	// Anything not reached is orphaned.
	var orphans []*Inode
	s.inodes.each(func(in *Inode) {
		if !reachable[in.Ino] {
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

	// Overlapping inode grants would let two decoupled clients mint the
	// same inode numbers.
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
