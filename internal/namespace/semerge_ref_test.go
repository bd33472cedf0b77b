package namespace

// The path-keyed strong-eventual merger as it stood before the
// directory-node rewrite of semerge.go, kept verbatim (only the type and
// constructor are renamed) as the reference TestSEMergeMatchesReference
// drives the real one against. It shares SETag, seKind and joinPath with
// semerge.go, and keeps its own copy of the summary as it stood then
// (refEntry), so the split layout of seEntry is checked against the
// summary it replaced. It is deliberately not maintained for speed.

import (
	"fmt"
	"sort"
	"strings"

	"cudele/internal/journal"
)

// refEntry is the CRDT summary for one dentry path, every tag inline.
type refEntry struct {
	fileTag SETag
	dirTag  SETag
	tombTag SETag

	ino            Ino
	mode, uid, gid uint32

	hasFile, hasDir, hasTomb bool
}

// decide resolves the summary to the rendered state of the dentry.
func (e *refEntry) decide() seKind {
	best := SETag{}
	kind := seAbsent
	if e.hasDir {
		best, kind = e.dirTag, seIsDir
	}
	if e.hasFile && (kind == seAbsent || e.fileTag.After(best)) {
		best, kind = e.fileTag, seIsFile
	}
	if kind == seAbsent {
		return seAbsent
	}
	if e.hasTomb && !best.After(e.tombTag) {
		return seAbsent
	}
	return kind
}

// refSEMerger merges decoupled client journals into a Store with
// strong-eventual (commutative, convergent) semantics.
type refSEMerger struct {
	store *Store

	// entries maps a dentry's absolute path to its CRDT summary. Paths
	// are stable identities here because renames are unsupported.
	entries map[string]*refEntry

	// children maps a directory path to the set of child names ever
	// summarized under it, so a resurrected directory can re-render its
	// surviving children.
	children map[string]map[string]bool

	// paths maps every inode seen (store directories at construction,
	// plus each merged mkdir's inode, winner or loser) to its logical
	// dentry path, so later events can name it as a parent.
	paths map[Ino]string
}

// newRefSEMerger wraps st for strong-eventual merging. Directories already
// in the store are registered so merged events can reference them as
// parents.
func newRefSEMerger(st *Store) *refSEMerger {
	m := &refSEMerger{
		store:    st,
		entries:  make(map[string]*refEntry),
		children: make(map[string]map[string]bool),
		paths:    make(map[Ino]string),
	}
	st.Walk(RootIno, func(p string, in *Inode) error {
		if in.IsDir() {
			m.paths[in.Ino] = p
		}
		return nil
	})
	return m
}

func seSplit(key string) (parent, name string) {
	i := strings.LastIndexByte(key, '/')
	parent, name = key[:i], key[i+1:]
	if parent == "" {
		parent = "/"
	}
	return parent, name
}

// parentPath resolves an event's parent inode to its logical path,
// falling back to the store for directories that appeared after the
// merger was built (e.g. a subtree root decoupled later).
func (m *refSEMerger) parentPath(ino Ino) (string, bool) {
	if p, ok := m.paths[ino]; ok {
		return p, true
	}
	in, err := m.store.Get(ino)
	if err != nil || !in.IsDir() {
		return "", false
	}
	p, err := m.store.PathOf(ino)
	if err != nil {
		return "", false
	}
	m.paths[ino] = p
	return p, true
}

func (m *refSEMerger) entry(key string) *refEntry {
	e := m.entries[key]
	if e == nil {
		e = &refEntry{}
		m.entries[key] = e
	}
	return e
}

func (m *refSEMerger) link(parent, name string) {
	set := m.children[parent]
	if set == nil {
		set = make(map[string]bool)
		m.children[parent] = set
	}
	set[name] = true
}

// ApplyEvent merges one journal event. It implements journal.Target, so the
// MDS's converge_apply mechanism reuses the ordinary replay loop. Events
// that lose their tie-break are absorbed silently (that IS the merge);
// only structurally impossible events (unknown parent inode, renames,
// setattrs) error.
func (m *refSEMerger) ApplyEvent(ev *journal.Event) error {
	switch ev.Type {
	case journal.EvCreate, journal.EvMkdir:
		pp, ok := m.parentPath(Ino(ev.Parent))
		if !ok {
			return fmt.Errorf("converge %s %q: parent inode %d never seen: %w",
				ev.Type, ev.Name, ev.Parent, ErrNotExist)
		}
		key := joinPath(pp, ev.Name)
		tag := SETag{Mtime: ev.Mtime, Client: ev.Client, Seq: ev.Seq}
		e := m.entry(key)
		if ev.Type == journal.EvMkdir {
			if ev.Ino != 0 {
				m.paths[Ino(ev.Ino)] = key
			}
			if !e.hasDir || tag.After(e.dirTag) {
				e.hasDir, e.dirTag = true, tag
			}
		} else {
			if ev.Ino == 0 {
				return fmt.Errorf("converge create %q: %w: strong-eventual creates need a client-assigned inode",
					ev.Name, ErrInval)
			}
			if !e.hasFile || tag.After(e.fileTag) {
				e.hasFile, e.fileTag = true, tag
				e.ino, e.mode, e.uid, e.gid = Ino(ev.Ino), ev.Mode, ev.UID, ev.GID
			}
		}
		m.link(pp, ev.Name)
		return m.materialize(key)
	case journal.EvUnlink, journal.EvRmdir:
		pp, ok := m.parentPath(Ino(ev.Parent))
		if !ok {
			return fmt.Errorf("converge %s %q: parent inode %d never seen: %w",
				ev.Type, ev.Name, ev.Parent, ErrNotExist)
		}
		key := joinPath(pp, ev.Name)
		tag := SETag{Mtime: ev.Mtime, Client: ev.Client, Seq: ev.Seq}
		e := m.entry(key)
		if !e.hasTomb || tag.After(e.tombTag) {
			e.hasTomb, e.tombTag = true, tag
		}
		m.link(pp, ev.Name)
		return m.materialize(key)
	case journal.EvAllocRange:
		return m.store.ReserveRange(Ino(ev.Ino), ev.Size)
	case journal.EvExport:
		return nil
	}
	return fmt.Errorf("converge %v: %w: unsupported in strong-eventual mode (decompose into unlink+create)",
		ev.Type, ErrInval)
}

// materialize reconciles the store with the summary at key. If the
// parent directory is not currently rendered, nothing happens now; the
// parent's own materialization recurses into its children when it
// (re)appears.
func (m *refSEMerger) materialize(key string) error {
	e := m.entries[key]
	if e == nil {
		return nil
	}
	pp, name := seSplit(key)
	pin, err := m.store.Resolve(pp)
	if err != nil || !pin.IsDir() {
		return nil
	}
	cur, _ := m.store.Lookup(pin.Ino, name)
	switch e.decide() {
	case seAbsent:
		if cur == nil {
			return nil
		}
		return m.removeRendered(key, cur, pin.Ino, name)
	case seIsFile:
		if cur != nil {
			if !cur.IsDir() && cur.Ino == e.ino {
				return nil // already the winning create
			}
			if err := m.removeRendered(key, cur, pin.Ino, name); err != nil {
				return err
			}
		}
		_, err := m.store.Create(pin.Ino, name, CreateAttrs{
			Ino: e.ino, Mode: e.mode, UID: e.uid,
			GID: e.gid, Mtime: e.fileTag.Mtime,
		})
		return err
	case seIsDir:
		if cur != nil && cur.IsDir() {
			return nil // structural merge: keep the rendered directory
		}
		if cur != nil {
			if err := m.removeRendered(key, cur, pin.Ino, name); err != nil {
				return err
			}
		}
		// Directory inodes are rendered with server-assigned numbers:
		// the directory's identity is its path, not its inode.
		if _, err := m.store.Mkdir(pin.Ino, name, CreateAttrs{Mode: 0755}); err != nil {
			return err
		}
		// Resurrect surviving children, in sorted order so the store's
		// mutation sequence stays deterministic.
		names := make([]string, 0, len(m.children[key]))
		for cn := range m.children[key] {
			names = append(names, cn)
		}
		sort.Strings(names)
		for _, cn := range names {
			if err := m.materialize(joinPath(key, cn)); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

// removeRendered drops the currently rendered entry at key from the
// store. Summaries are never dropped, so a pruned subtree can be
// resurrected by a later winning mkdir in any merge order.
func (m *refSEMerger) removeRendered(key string, cur *Inode, parent Ino, name string) error {
	if !cur.IsDir() {
		return m.store.Unlink(parent, name)
	}
	_, err := m.store.PruneSubtree(key)
	return err
}
