package mds

import (
	"cudele/internal/journal"
	"cudele/internal/namespace"
)

// The merge steps of the two policy cells beyond the paper's Table I
// (merge.go composes them into the shared merge loop): speculative_apply
// (ConsSpeculative) validates each client prediction against the current
// global view and reports the losers back for rollback; converge_apply
// (ConsStrongEventual) merges through the namespace CRDT resolver so
// concurrent merges commute.

// speculativeValidate is the MDS-side prediction check: does this event
// still apply cleanly against the live global view? A missing parent is
// a conflict in itself, which naturally cascades — ops under a
// rolled-back mkdir are rejected without any dependency tracking.
func (s *Server) speculativeValidate(ev *journal.Event) bool {
	st := s.store
	parent := namespace.Ino(ev.Parent)
	switch ev.Type {
	case journal.EvCreate, journal.EvMkdir:
		dir, err := st.Get(parent)
		// An existing dentry falsifies the prediction.
		return err == nil && dir.IsDir() && st.Child(parent, ev.Name) == nil
	case journal.EvUnlink, journal.EvRmdir:
		in := st.Child(parent, ev.Name)
		if in == nil {
			return false
		}
		if ev.Type == journal.EvUnlink {
			return !in.IsDir()
		}
		return in.IsDir() && in.NumChildren() == 0
	case journal.EvRename:
		dst, err := st.Get(namespace.Ino(ev.NewParent))
		return err == nil && dst.IsDir() && st.Child(parent, ev.Name) != nil &&
			st.Child(dst.Ino, ev.NewName) == nil
	case journal.EvSetAttr:
		_, err := st.Get(namespace.Ino(ev.Ino))
		return err == nil
	}
	return true // alloc/export/undo records never conflict
}

// seMerger lazily wraps the rank's store in the strong-eventual CRDT
// resolver. It is reset whenever the store it renders is replaced (Crash,
// Recover).
func (s *Server) seMerger() *namespace.SEMerger {
	if s.se == nil {
		s.se = namespace.NewSEMerger(s.store)
	}
	return s.se
}
