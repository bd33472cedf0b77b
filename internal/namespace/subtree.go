package namespace

import (
	"fmt"

	"cudele/internal/policy"
)

// This file implements recursive subtree policies: Cudele stores
// consistency/durability policies in "large inodes" and resolves the
// policy governing any inode by walking toward the root (paper §IV-C).
// Subtrees without policies inherit the semantics of their parent.

// SetPolicy attaches pol to the directory inode ino, making it the root of
// a policy subtree. Passing nil clears the subtree's policy so it inherits
// again.
func (s *Store) SetPolicy(ino Ino, pol *policy.Policy) error {
	in, err := s.Get(ino)
	if err != nil {
		return err
	}
	if !in.IsDir() {
		return fmt.Errorf("set policy on inode %d: %w", ino, ErrNotDir)
	}
	if pol != nil {
		if err := pol.Validate(); err != nil {
			return err
		}
	}
	in.Policy = pol
	s.version++
	return nil
}

// PolicyRoot returns the inode that owns the policy governing ino: the
// nearest ancestor (or self) with an attached policy, or the root inode
// when no subtree policy applies. Nested policies do not merge: the
// governing root's Policy is the whole policy.
func (s *Store) PolicyRoot(ino Ino) (*Inode, error) {
	cur, err := s.Get(ino)
	if err != nil {
		return nil, err
	}
	for cur.Policy == nil && cur.Ino != RootIno {
		if cur, err = s.Get(cur.Parent); err != nil {
			return nil, err
		}
	}
	return cur, nil
}
