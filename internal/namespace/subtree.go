package namespace

import (
	"fmt"

	"cudele/internal/policy"
)

// This file implements recursive subtree policies: Cudele stores
// consistency/durability policies in "large inodes" and resolves the
// effective policy of any inode by walking toward the root (paper §IV-C).
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

// EffectivePolicy resolves the policy governing ino: the nearest ancestor
// (or self) with an attached policy. Inodes outside any policy subtree get
// the global default (stock CephFS semantics). With the embeddable-policy
// extension, nested policies are merged child-over-parent via
// policy.Inherit.
func (s *Store) EffectivePolicy(ino Ino) (*policy.Policy, error) {
	// Collect attached policies from ino up to the root.
	var chain []*policy.Policy
	cur, err := s.Get(ino)
	if err != nil {
		return nil, err
	}
	for {
		if cur.Policy != nil {
			chain = append(chain, cur.Policy)
		}
		if cur.Ino == RootIno {
			break
		}
		cur, err = s.Get(cur.Parent)
		if err != nil {
			return nil, err
		}
	}
	// Fold outermost-first so inner subtrees override outer ones.
	eff := policy.Default()
	for i := len(chain) - 1; i >= 0; i-- {
		eff = policy.Inherit(eff, chain[i])
	}
	return eff, nil
}

// PolicyRoot returns the inode that owns the policy governing ino: the
// nearest ancestor (or self) with an attached policy, or RootIno when no
// subtree policy applies.
func (s *Store) PolicyRoot(ino Ino) (Ino, error) {
	cur, err := s.Get(ino)
	if err != nil {
		return 0, err
	}
	for {
		if cur.Policy != nil {
			return cur.Ino, nil
		}
		if cur.Ino == RootIno {
			return RootIno, nil
		}
		cur, err = s.Get(cur.Parent)
		if err != nil {
			return 0, err
		}
	}
}
