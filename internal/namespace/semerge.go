// Strong-eventual namespace merging (the ConsStrongEventual cell, beyond
// the paper's Table I).
//
// An SEMerger turns Store into a state-based CRDT: every merged journal
// event max-merges into a per-dentry summary (latest file create, latest
// directory create, latest tombstone — each a join-semilattice under the
// SETag order), and the store is re-rendered from the summaries after each
// update. Because the summaries only grow by commutative, associative,
// idempotent joins, merging client journals in ANY order converges to the
// same rendered namespace — the obligation of Verifying Strong Eventual
// Consistency (arXiv 1707.01747), checked on generated histories by
// TestSEMergeLaws and end-to-end by the chaos harness's merge-order
// permutation schedules.
//
// Conflict resolution rules:
//
//   - Same-name races resolve by SETag: (Mtime, Client, Seq), latest
//     wins; ties on Mtime break by lexicographically larger client id,
//     then by per-client sequence number.
//   - Directory identity is structural: two mkdirs of the same path merge
//     into one directory holding the union of both children. A rendered
//     directory's inode number is therefore not part of the converged
//     image (SEImageOf renders directories path-only); file inodes are
//     client-assigned from disjoint grants and do converge.
//   - A file create beats a directory create only with a strictly later
//     tag (equal tags prefer the directory); a tombstone removes the
//     winning entry unless the entry's tag is strictly later.
//   - A removed directory's children stay in the summaries, so a later
//     (higher-tag) re-mkdir resurrects the surviving children in every
//     merge order.
//
// The summaries are kept per logical directory (seDir), in a tree that
// mirrors the paths ever named, and an event's parent inode leads straight
// to its directory's node: merging an event looks one short name up in one
// map and reads the rendered parent's inode off the node, where it stays
// pinned until someone else writes the store or the merger prunes a
// directory; it builds, splits and hashes no path. semerge_ref_test.go
// keeps the path-keyed merger this replaced as the reference the tests
// drive it against.
//
// Renames and setattrs are not supported in strong-eventual mode: a
// rename is not commutative as a single event, so clients must decompose
// it into unlink+create halves, which then resolve by the ordinary
// tie-break.
package namespace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"cudele/internal/journal"
)

// SETag totally orders strong-eventual updates. Later Mtime wins; ties
// break by Client then Seq so the order is total and deterministic.
type SETag struct {
	Mtime  int64
	Client string
	Seq    uint64
}

// After reports whether t is strictly later than o in the tie-break order.
func (t SETag) After(o SETag) bool {
	if t.Mtime != o.Mtime {
		return t.Mtime > o.Mtime
	}
	if t.Client != o.Client {
		return t.Client > o.Client
	}
	return t.Seq > o.Seq
}

// seEntry is the CRDT summary for one name in one logical directory.
// Each component only ever max-merges, so applying the same events in any
// order or any number of times yields the same summary. An entry with
// nothing summarized is a placeholder on the way to a deeper directory
// node; it is never rendered.
//
// The winning file create's payload is ino, mode, uid and gid; its mtime
// is fileTag.Mtime. The struct is 128 bytes (TestSEEntrySize): the three
// flags share one word with the payload's 32-bit fields.
type seEntry struct {
	fileTag SETag
	dirTag  SETag
	tombTag SETag

	ino            Ino
	mode, uid, gid uint32

	hasFile, hasDir, hasTomb bool

	// sub is the directory node at this entry's path, nil until a mkdir
	// or a store directory names it.
	sub *seDir
}

func (e *seEntry) summarized() bool { return e.hasFile || e.hasDir || e.hasTomb }

// seDir is one logical directory: the summaries of every name merged
// under it. Its path is its identity — renames are unsupported, so a path
// never comes to mean another directory — and is built once, when the
// node is: no event joins, splits or hashes a path.
type seDir struct {
	path    string
	entries map[string]*seEntry

	// pin is the inode the directory was rendered at when the merger's
	// epoch was pinEpoch; 0 when not looked up in that epoch.
	pin      Ino
	pinEpoch uint64
}

// entry returns name's summary in d, an empty one from the merger's slab
// when name is new.
func (m *SEMerger) entry(d *seDir, name string) *seEntry {
	e := d.entries[name]
	if e == nil {
		if len(m.slab) == 0 {
			m.slab = make([]seEntry, seSlab)
		}
		e = &m.slab[0]
		m.slab = m.slab[1:]
		d.entries[name] = e
	}
	return e
}

// seSlab is how many summaries one slab allocation carves: summaries are
// never freed, so carving them from shared arrays loses nothing. A slab
// plus the 8-byte header the allocator puts on a pointerful object over
// 512 bytes fills one 8 KB size class (63 summaries of 128 bytes); 64
// would spill into the 9 472-byte class and waste 20 bytes a summary.
const seSlab = (8<<10 - 8) / int(unsafe.Sizeof(seEntry{}))

// dir returns the node of the directory that e, the entry for name in
// parent, stands for.
func (e *seEntry) dir(parent *seDir, name string) *seDir {
	if e.sub == nil {
		e.sub = &seDir{path: seJoin(parent.path, name), entries: make(map[string]*seEntry)}
	}
	return e.sub
}

type seKind uint8

const (
	seAbsent seKind = iota
	seIsFile
	seIsDir
)

// decide resolves the summary to the rendered state of the dentry.
func (e *seEntry) decide() seKind {
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

// SEMerger merges decoupled client journals into a Store with
// strong-eventual (commutative, convergent) semantics.
type SEMerger struct {
	store *Store

	// root is the node of "/"; every other node hangs off the entry that
	// names it in its parent's node.
	root *seDir

	// dirs maps every directory inode seen (store directories at
	// construction, plus each merged mkdir's inode, winner or loser) to
	// its logical directory, so later events can name it as a parent.
	dirs map[Ino]*seDir

	// epoch dates every seDir.pin: a pin is good while its epoch is the
	// merger's. The epoch advances when the store's version is not ver,
	// the version the merger's own last mutation left — an RPC handler
	// or another merge wrote the store, and may have removed or replaced
	// any directory — and when the merger prunes a rendered directory
	// itself. Its other writes (files, a new directory) move no directory
	// a pin names.
	epoch, ver uint64

	slab []seEntry // summaries not yet handed out (entry)
}

// NewSEMerger wraps st for strong-eventual merging. Directories already
// in the store are registered so merged events can reference them as
// parents.
func NewSEMerger(st *Store) *SEMerger {
	m := &SEMerger{
		store: st,
		root:  &seDir{path: "/", entries: make(map[string]*seEntry)},
		dirs:  make(map[Ino]*seDir),
		ver:   st.Version(),
	}
	st.Walk(RootIno, func(p string, in *Inode) error {
		if in.IsDir() {
			m.dirs[in.Ino] = m.dirAt(p)
		}
		return nil
	})
	return m
}

func seJoin(parent, name string) string {
	if parent == "/" {
		return "/" + name
	}
	return parent + "/" + name
}

// dirAt returns the node of the directory at absolute path p, creating it
// and, as placeholders, the entries that lead to it.
func (m *SEMerger) dirAt(p string) *seDir {
	d := m.root
	for it := SplitIter(p); ; {
		comp, ok := it.Next()
		if !ok {
			return d
		}
		d = m.entry(d, comp).dir(d, comp)
	}
}

// parentDir resolves an event's parent inode to its logical directory,
// falling back to the store for directories that appeared after the
// merger was built (e.g. a subtree root decoupled later).
func (m *SEMerger) parentDir(ino Ino) *seDir {
	if d := m.dirs[ino]; d != nil {
		return d
	}
	in, err := m.store.Get(ino)
	if err != nil || !in.IsDir() {
		return nil
	}
	p, err := m.store.PathOf(ino)
	if err != nil {
		return nil
	}
	d := m.dirAt(p)
	m.dirs[ino] = d
	return d
}

// ApplyEvent merges one journal event. It implements journal.Target, so the
// MDS's converge_apply mechanism reuses the ordinary replay loop. Events
// that lose their tie-break are absorbed silently (that IS the merge);
// only structurally impossible events (unknown parent inode, a name no
// dentry can carry, renames, setattrs) error.
func (m *SEMerger) ApplyEvent(ev *journal.Event) error {
	switch ev.Type {
	case journal.EvCreate, journal.EvMkdir, journal.EvUnlink, journal.EvRmdir:
		dir := m.parentDir(Ino(ev.Parent))
		if dir == nil {
			return fmt.Errorf("converge %s %q: parent inode %d never seen: %w",
				ev.Type, ev.Name, ev.Parent, ErrNotExist)
		}
		if strings.Contains(ev.Name, "/") {
			return fmt.Errorf("converge %s %q: %w", ev.Type, ev.Name, ErrInval)
		}
		tag := SETag{Mtime: ev.Mtime, Client: ev.Client, Seq: ev.Seq}
		e := m.entry(dir, ev.Name)
		switch ev.Type {
		case journal.EvMkdir:
			if ev.Ino != 0 {
				m.dirs[Ino(ev.Ino)] = e.dir(dir, ev.Name)
			}
			if !e.hasDir || tag.After(e.dirTag) {
				e.hasDir, e.dirTag = true, tag
			}
		case journal.EvCreate:
			if ev.Ino == 0 {
				return fmt.Errorf("converge create %q: %w: strong-eventual creates need a client-assigned inode",
					ev.Name, ErrInval)
			}
			if !e.hasFile || tag.After(e.fileTag) {
				e.hasFile, e.fileTag = true, tag
				e.ino, e.mode, e.uid, e.gid = Ino(ev.Ino), ev.Mode, ev.UID, ev.GID
			}
		default:
			if !e.hasTomb || tag.After(e.tombTag) {
				e.hasTomb, e.tombTag = true, tag
			}
		}
		return m.materialize(dir, ev.Name, e)
	case journal.EvAllocRange:
		return m.store.ReserveRange(Ino(ev.Ino), ev.Size)
	case journal.EvExport:
		return nil
	}
	return fmt.Errorf("converge %v: %w: unsupported in strong-eventual mode (decompose into unlink+create)",
		ev.Type, ErrInval)
}

var _ journal.Target = (*SEMerger)(nil)

// rendered returns the inode dir is rendered at in the store, false when
// it is not rendered. A pin from the current epoch answers without a
// walk; otherwise the path is resolved and pinned.
func (m *SEMerger) rendered(dir *seDir) (Ino, bool) {
	if v := m.store.Version(); v != m.ver {
		m.epoch++
		m.ver = v
	}
	if dir.pin != 0 && dir.pinEpoch == m.epoch {
		return dir.pin, true
	}
	in, err := m.store.Resolve(dir.path)
	if err != nil || !in.IsDir() {
		return 0, false
	}
	dir.pin, dir.pinEpoch = in.Ino, m.epoch
	return in.Ino, true
}

// wrote records that the store's current version is the merger's own
// doing, so it does not age the pins.
func (m *SEMerger) wrote() { m.ver = m.store.Version() }

// materialize reconciles the store with e, the summary of name in dir. If
// dir is not currently rendered, nothing happens now; its own
// materialization recurses into its entries when it (re)appears. The
// rendered directory comes from rendered: RPC handlers write the same
// store between merges, so an inode pinned before they did is looked up
// again.
func (m *SEMerger) materialize(dir *seDir, name string, e *seEntry) error {
	pin, ok := m.rendered(dir)
	if !ok {
		return nil
	}
	cur := m.store.Child(pin, name)
	switch e.decide() {
	case seAbsent:
		if cur == nil {
			return nil
		}
		return m.removeRendered(dir, name, cur, pin)
	case seIsFile:
		if cur != nil {
			if !cur.IsDir() && cur.Ino == e.ino {
				return nil // already the winning create
			}
			if err := m.removeRendered(dir, name, cur, pin); err != nil {
				return err
			}
		}
		_, err := m.store.Create(pin, name, CreateAttrs{
			Ino: e.ino, Mode: e.mode, UID: e.uid,
			GID: e.gid, Mtime: e.fileTag.Mtime,
		})
		m.wrote()
		return err
	case seIsDir:
		if cur != nil && cur.IsDir() {
			return nil // structural merge: keep the rendered directory
		}
		if cur != nil {
			if err := m.removeRendered(dir, name, cur, pin); err != nil {
				return err
			}
		}
		// Directory inodes are rendered with server-assigned numbers:
		// the directory's identity is its path, not its inode.
		_, err := m.store.Mkdir(pin, name, CreateAttrs{Mode: 0755})
		m.wrote()
		if err != nil {
			return err
		}
		if e.sub == nil {
			return nil
		}
		// Resurrect surviving children, in sorted order so the store's
		// mutation sequence stays deterministic.
		names := make([]string, 0, len(e.sub.entries))
		for cn, ce := range e.sub.entries {
			if ce.summarized() {
				names = append(names, cn)
			}
		}
		sort.Strings(names)
		for _, cn := range names {
			if err := m.materialize(e.sub, cn, e.sub.entries[cn]); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

// removeRendered drops cur, the currently rendered entry for name in dir
// (inode parent), from the store. Summaries are never dropped, so a pruned subtree can be
// resurrected by a later winning mkdir in any merge order. A pruned
// directory takes every directory under it along, so a prune ages every
// pin.
func (m *SEMerger) removeRendered(dir *seDir, name string, cur *Inode, parent Ino) error {
	var err error
	if !cur.IsDir() {
		err = m.store.Unlink(parent, name)
	} else {
		_, err = m.store.PruneSubtree(seJoin(dir.path, name))
		m.epoch++
	}
	m.wrote()
	return err
}

// SEImageOf renders the subtree at root as a canonical text image for
// convergence checks: one line per inode in depth-first sorted order,
// directories path-only (their inode numbers are not part of the
// converged state), files with their client-assigned inode and
// attributes. Two stores merged from any permutations of the same client
// journals must render byte-identical images.
//
// The image is written in two walks, the first only measuring it, so it
// is one allocation of its exact size: grown by doubling and then copied
// into a string, it held up to three times its size at once, in the
// largest contiguous blocks a convergence check allocates.
func SEImageOf(st *Store, root Ino) (string, error) {
	var line []byte
	size := 0
	err := st.Walk(root, func(p string, in *Inode) error {
		line = appendSEImageLine(line[:0], p, in)
		size += len(line)
		return nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(size)
	err = st.Walk(root, func(p string, in *Inode) error {
		line = appendSEImageLine(line[:0], p, in)
		b.Write(line)
		return nil
	})
	return b.String(), err
}

// appendSEImageLine appends the image line of in, at path p, to b.
func appendSEImageLine(b []byte, p string, in *Inode) []byte {
	b = append(b, p...)
	if in.IsDir() {
		return append(b, "/\n"...)
	}
	b = strconv.AppendUint(append(b, " ino="...), uint64(in.Ino), 10)
	b = strconv.AppendUint(append(b, " mode="...), uint64(in.Mode), 8)
	b = strconv.AppendUint(append(b, " uid="...), uint64(in.UID), 10)
	b = strconv.AppendUint(append(b, " gid="...), uint64(in.GID), 10)
	b = strconv.AppendInt(append(b, " mtime="...), in.Mtime, 10)
	return append(b, '\n')
}
