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
	switch ev.Type {
	case journal.EvCreate, journal.EvMkdir:
		dir, err := st.Get(namespace.Ino(ev.Parent))
		if err != nil || !dir.IsDir() {
			return false
		}
		_, err = st.Lookup(namespace.Ino(ev.Parent), ev.Name)
		return err != nil // an existing dentry falsifies the prediction
	case journal.EvUnlink, journal.EvRmdir:
		in, err := st.Lookup(namespace.Ino(ev.Parent), ev.Name)
		if err != nil {
			return false
		}
		if ev.Type == journal.EvUnlink {
			return !in.IsDir()
		}
		return in.IsDir() && in.NumChildren() == 0
	case journal.EvRename:
		if _, err := st.Lookup(namespace.Ino(ev.Parent), ev.Name); err != nil {
			return false
		}
		dir, err := st.Get(namespace.Ino(ev.NewParent))
		if err != nil || !dir.IsDir() {
			return false
		}
		_, err = st.Lookup(namespace.Ino(ev.NewParent), ev.NewName)
		return err != nil
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
