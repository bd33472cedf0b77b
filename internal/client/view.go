package client

import (
	"fmt"
	"sort"

	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/runtime"
)

// DeltaFS-style read-time views (paper §II-B): with invisible consistency
// there is no ground truth in the global namespace — snapshots of the
// metadata stay with the clients, and "consistent namespaces are
// constructed and resolved at application read time or when a 3rd-party
// system needs a view of the metadata". BuildView is that 3rd-party
// construction: it folds one or more clients' persisted journals over the
// current global namespace without merging anything.

// Snapshot returns an immutable copy of the client's decoupled namespace
// image plus the journal events that produce it, without disturbing the
// live journal. Other processes can replay the events to reconstruct the
// subtree exactly as it was at snapshot time.
func (c *Client) Snapshot() (*namespace.Store, []*journal.Event, error) {
	if c.dec == nil {
		return nil, nil, ErrNotDecoupled
	}
	events := c.dec.jrnl.Events()
	// Deep-copy by replay: the journal is the authoritative history.
	snap := namespace.NewStore()
	globalEvents := make([]*journal.Event, len(events))
	for i, ev := range events {
		copied := *ev
		globalEvents[i] = &copied
	}
	// Replay onto a local image rooted at the subtree (parent = root).
	for _, ev := range events {
		local := *ev
		if namespace.Ino(local.Parent) == c.dec.root {
			local.Parent = uint64(namespace.RootIno)
		}
		if err := snap.ApplyEvent(&local); err != nil {
			return nil, nil, fmt.Errorf("snapshot replay: %w", err)
		}
	}
	return snap, globalEvents, nil
}

// ViewSource names a client whose persisted journal contributes to a
// read-time view.
type ViewSource struct {
	// Owner is the client name whose journal Global Persist wrote.
	Owner string
}

// BuildView constructs a consistent namespace at read time: it copies the
// global namespace's current tree and overlays the persisted journals of
// the given owners, in order. Nothing is written back — the global
// namespace remains untouched, exactly like DeltaFS resolving a view for
// a reader or middleware. Conflicting creates resolve in favor of the
// later journal (the decoupled results are authoritative, §III-C).
func (c *Client) BuildView(p runtime.Task, sources []ViewSource) (*namespace.Store, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	// Start from a copy of the global namespace: walk it via RPCs the
	// way a reader would. To keep RPC load realistic but bounded, the
	// view copies the tree with one readdir per directory plus one
	// getattr per entry.
	view := namespace.NewStore()
	if err := c.copyTree(p, view, namespace.RootIno, namespace.RootIno); err != nil {
		return nil, err
	}
	// Overlay each owner's persisted journal.
	ordered := append([]ViewSource(nil), sources...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Owner < ordered[j].Owner })
	for _, src := range ordered {
		events, err := c.FetchGlobalJournal(p, src.Owner)
		if err != nil {
			return nil, fmt.Errorf("view source %s: %w", src.Owner, err)
		}
		for _, ev := range events {
			if err := view.ApplyEvent(ev); err != nil {
				return nil, fmt.Errorf("view overlay %s: %w", src.Owner, err)
			}
		}
	}
	return view, nil
}

// copyTree mirrors the directory subtree rooted at srcDir (a global
// inode) into dst under dstDir, issuing the RPCs a real reader would.
func (c *Client) copyTree(p runtime.Task, dst *namespace.Store, srcDir, dstDir namespace.Ino) error {
	names, err := c.ReadDir(p, srcDir)
	if err != nil {
		return err
	}
	for _, name := range names {
		ino, err := c.Lookup(p, srcDir, name)
		if err != nil {
			continue // raced with a concurrent unlink
		}
		st, err := c.Stat(p, ino)
		if err != nil {
			continue
		}
		attrs := namespace.CreateAttrs{
			Ino: ino, Mode: st.Mode, UID: st.UID, GID: st.GID, Mtime: st.Mtime,
		}
		if st.IsDir {
			nd, err := dst.Mkdir(dstDir, name, attrs)
			if err != nil {
				return err
			}
			if err := c.copyTree(p, dst, ino, nd.Ino); err != nil {
				return err
			}
		} else {
			in, err := dst.Create(dstDir, name, attrs)
			if err != nil {
				return err
			}
			in.Size = st.Size
		}
	}
	return nil
}
