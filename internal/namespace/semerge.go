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
// name table and reads the rendered parent's inode off the node, where it stays
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
// is fileTag.Mtime. Most names only ever see file creates, so the
// directory and tombstone tags and the directory node live in extra,
// allocated for the few names that need them: the struct is 64 bytes
// (TestSEEntrySize), half of what it was with every tag inline.
type seEntry struct {
	fileTag SETag

	ino            Ino
	mode, uid, gid uint32
	hasFile        bool

	// extra is nil until a mkdir or a tombstone is summarized under
	// the name or a directory node hangs off it.
	extra *seExtra
}

// seExtra is the part of a summary a file create does not use.
type seExtra struct {
	dirTag  SETag
	tombTag SETag

	hasDir, hasTomb bool

	// sub is the directory node at this entry's path, nil until a mkdir
	// or a store directory names it.
	sub *seDir
}

// withExtra returns e.extra, allocating it on first use.
func (e *seEntry) withExtra() *seExtra {
	if e.extra == nil {
		e.extra = new(seExtra)
	}
	return e.extra
}

// sub returns the directory node at e's path, nil when there is none.
func (e *seEntry) sub() *seDir {
	if e.extra == nil {
		return nil
	}
	return e.extra.sub
}

func (e *seEntry) summarized() bool {
	return e.hasFile || e.extra != nil && (e.extra.hasDir || e.extra.hasTomb)
}

// seDir is one logical directory: the summaries of every name merged
// under it. Its path is its identity — renames are unsupported, so a path
// never comes to mean another directory — and is built once, when the
// node is: no event joins, splits or hashes a path.
type seDir struct {
	path string
	// entries numbers the summary of every name merged under the
	// directory (see SEMerger.at).
	entries Dentries

	// pin is the inode the directory was rendered at when the merger's
	// epoch was pinEpoch; 0 when not looked up in that epoch.
	pin      Ino
	pinEpoch uint64
}

// entry returns name's summary in d, a new empty one when name is new.
// name must not be empty.
func (m *SEMerger) entry(d *seDir, name string) *seEntry {
	de, _, pr := d.entries.find(name)
	if de != nil {
		return m.at(de.ino)
	}
	n := m.n
	if int(n)%seSlab == 0 {
		m.slabs = append(m.slabs, make([]seEntry, seSlab))
	}
	m.n++
	d.entries.insert(pr, name, n)
	return m.at(n)
}

// at returns summary number n.
func (m *SEMerger) at(n Ino) *seEntry {
	i := int(n)
	return &m.slabs[i/seSlab][i%seSlab]
}

// seSlab is how many summaries one slab allocation carves: summaries are
// never freed, so carving them from shared arrays loses nothing. A slab
// plus the 8-byte header the allocator puts on a pointerful object over
// 512 bytes fills one 8 KB size class (127 summaries of 64 bytes); 128
// would spill into the 9 472-byte class.
const seSlab = (8<<10 - 8) / int(unsafe.Sizeof(seEntry{}))

// dir returns the node of the directory that e, the entry for name in
// parent, stands for.
func (e *seEntry) dir(parent *seDir, name string) *seDir {
	x := e.withExtra()
	if x.sub == nil {
		x.sub = &seDir{path: joinPath(parent.path, name)}
	}
	return x.sub
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
	x := e.extra
	if x != nil && x.hasDir {
		best, kind = x.dirTag, seIsDir
	}
	if e.hasFile && (kind == seAbsent || e.fileTag.After(best)) {
		best, kind = e.fileTag, seIsFile
	}
	if kind == seAbsent {
		return seAbsent
	}
	if x != nil && x.hasTomb && !best.After(x.tombTag) {
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

	// slabs holds every summary, numbered in the order entry made them.
	slabs [][]seEntry
	n     Ino // summaries made
}

// NewSEMerger wraps st for strong-eventual merging. Every directory
// already in the store is registered, so merged events can reference it
// as a parent in any merge order: registered only when an event first
// names it, a directory another journal's file create had already pruned
// would be "never seen" in that order alone. Registering is one pass over
// the inode table that makes a node and a path for each directory: it
// builds no file's path and sorts no listing, so what it allocates
// depends on the directories alone, however many files they hold.
func NewSEMerger(st *Store) *SEMerger {
	m := &SEMerger{
		store: st,
		root:  &seDir{path: "/"},
		dirs:  make(map[Ino]*seDir),
		ver:   st.Version(),
	}
	m.dirs[RootIno] = m.root
	st.inodes.each(func(in *Inode) {
		if in.IsDir() {
			m.node(in)
		}
	})
	return m
}

// node returns the node of in, a store directory, registered under its
// inode: the node at the path its Parent and Name fields spell, as PathOf
// reads them. It creates, and registers, the nodes of the ancestors on
// the way, and returns nil when in's ancestry does not reach the root
// through directories.
func (m *SEMerger) node(in *Inode) *seDir {
	if d := m.dirs[in.Ino]; d != nil {
		return d
	}
	parent := m.store.inodes.get(in.Parent)
	if parent == nil || !parent.IsDir() {
		return nil
	}
	pd := m.node(parent)
	if pd == nil {
		return nil
	}
	d := m.entry(pd, in.Name).dir(pd, in.Name)
	m.dirs[in.Ino] = d
	return d
}

// parentDir resolves an event's parent inode to its logical directory,
// falling back to the store for directories that appeared after the
// merger was built (e.g. a subtree root decoupled later).
func (m *SEMerger) parentDir(ino Ino) *seDir {
	if d := m.dirs[ino]; d != nil {
		return d
	}
	in := m.store.inodes.get(ino)
	if in == nil || !in.IsDir() {
		return nil
	}
	return m.node(in)
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
		if ev.Name == "" || strings.Contains(ev.Name, "/") {
			return fmt.Errorf("converge %s %q: %w", ev.Type, ev.Name, ErrInval)
		}
		tag := SETag{Mtime: ev.Mtime, Client: ev.Client, Seq: ev.Seq}
		e := m.entry(dir, ev.Name)
		switch ev.Type {
		case journal.EvMkdir:
			if ev.Ino != 0 {
				m.dirs[Ino(ev.Ino)] = e.dir(dir, ev.Name)
			}
			if x := e.withExtra(); !x.hasDir || tag.After(x.dirTag) {
				x.hasDir, x.dirTag = true, tag
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
			if x := e.withExtra(); !x.hasTomb || tag.After(x.tombTag) {
				x.hasTomb, x.tombTag = true, tag
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
	kind := e.decide()
	cur, parent, pr, absent := m.store.probeChild(pin, name)
	if cur != nil {
		if kind == seIsFile && !cur.IsDir() && cur.Ino == e.ino || kind == seIsDir && cur.IsDir() {
			// Already the winning create, or a rendered directory the
			// structural merge keeps.
			return nil
		}
		if err := m.removeRendered(dir, name, cur, pin); err != nil {
			return err
		}
	}
	var typ FileType
	var attrs CreateAttrs
	switch kind {
	case seAbsent:
		return nil
	case seIsFile:
		typ, attrs = TypeFile, CreateAttrs{
			Ino: e.ino, Mode: e.mode, UID: e.uid,
			GID: e.gid, Mtime: e.fileTag.Mtime,
		}
	default:
		// Directory inodes are rendered with server-assigned numbers:
		// the directory's identity is its path, not its inode.
		typ, attrs = TypeDir, CreateAttrs{Mode: 0755}
	}
	// A create that follows a removal probes again, and one that cannot
	// link the name reports why.
	var err error
	if absent {
		_, err = m.store.add(parent, pr, name, typ, attrs)
	} else {
		_, err = m.store.createCommon(pin, name, typ, attrs)
	}
	m.wrote()
	sub := e.sub()
	if err != nil || typ == TypeFile || sub == nil {
		return err
	}
	// Resurrect surviving children, in sorted order so the store's
	// mutation sequence stays deterministic.
	names := make([]string, 0, sub.entries.Len())
	for cn, n := range sub.entries.All() {
		if m.at(n).summarized() {
			names = append(names, cn)
		}
	}
	sortNames(names)
	for _, cn := range names {
		if err := m.materialize(sub, cn, m.entry(sub, cn)); err != nil {
			return err
		}
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
		_, err = m.store.PruneSubtree(joinPath(dir.path, name))
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
// The image is written in two walks, the first only adding up line
// lengths, so it is one allocation of its exact size: grown by doubling
// and then copied into a string, it held up to three times its size at
// once, in the largest contiguous blocks a convergence check allocates.
// Neither walk builds a path string: each line is written from the walk's
// path buffer.
func SEImageOf(st *Store, root Ino) (string, error) {
	base, err := st.PathOf(root)
	if err != nil {
		return "", err
	}
	in := st.inodes.get(root)
	size := 0
	err = st.walk(base, in, func(p []byte, in *Inode) error {
		size += seImageLineLen(len(p), in)
		return nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(size)
	var line []byte
	err = st.walk(base, in, func(p []byte, in *Inode) error {
		line = appendSEImageLine(line[:0], p, in)
		b.Write(line)
		return nil
	})
	return b.String(), err
}

// seImageLineLen is the length of in's image line at a path of n bytes,
// len(appendSEImageLine(nil, p, in)) without writing it.
func seImageLineLen(n int, in *Inode) int {
	if in.IsDir() {
		return n + len("/\n")
	}
	mtime := digits(uint64(in.Mtime), 10)
	if in.Mtime < 0 {
		mtime = 1 + digits(-uint64(in.Mtime), 10)
	}
	return n + len(" ino= mode= uid= gid= mtime=\n") + digits(uint64(in.Ino), 10) +
		digits(uint64(in.Mode), 8) + digits(uint64(in.UID), 10) + digits(uint64(in.GID), 10) + mtime
}

// digits is the number of digits of u in base.
func digits(u, base uint64) int {
	n := 1
	for ; u >= base; u /= base {
		n++
	}
	return n
}

// appendSEImageLine appends the image line of in, at path p, to b.
func appendSEImageLine(b, p []byte, in *Inode) []byte {
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
