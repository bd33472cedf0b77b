// Package namespace implements the file-system namespace data structure:
// inodes, dentries, and directory fragments, plus recursive subtree policy
// attachment (paper §IV-A, §IV-C).
//
// A Store is the "metadata store" of CephFS: the tree the MDS keeps in
// memory and also flushes to the object store. It implements
// journal.Target, so journal replay — the shared recovery code path behind
// Volatile Apply, Nonvolatile Apply, and Stream recovery — is simply
// Store.ApplyEvent in a loop.
//
// Inodes are found by number through an index that does arithmetic on it
// (inotable.go), dentries by name through their directory's fragment
// (dirFrag). A Store has no lock of its own: it belongs to one lock domain
// at a time — the daemon's whose store it is — or is read under
// Runtime.Exclusive. Its index's reads write nothing, but a listing or a
// walk builds a directory's snapshot, so a Store read is not a pure read.
//
// SEMerger (semerge.go) layers strong-eventual merging on a Store.
package namespace

import (
	"cmp"
	"errors"
	"fmt"
	"path"
	"slices"
	"strings"
	"unsafe"

	"cudele/internal/journal"
	"cudele/internal/policy"
)

// Ino is an inode number. Inode 0 is never valid; the root is RootIno.
type Ino uint64

// RootIno is the root directory's inode number, like CephFS's inode 1.
const RootIno Ino = 1

// FileType distinguishes regular files from directories.
type FileType uint8

const (
	// TypeFile is a regular file.
	TypeFile FileType = iota
	// TypeDir is a directory.
	TypeDir
)

func (t FileType) String() string {
	if t == TypeDir {
		return "dir"
	}
	return "file"
}

// Errors returned by namespace operations. They mirror the POSIX errno
// values a file system client would see.
var (
	ErrExist    = errors.New("namespace: file exists")             // EEXIST
	ErrNotExist = errors.New("namespace: no such file or dir")     // ENOENT
	ErrNotDir   = errors.New("namespace: not a directory")         // ENOTDIR
	ErrIsDir    = errors.New("namespace: is a directory")          // EISDIR
	ErrNotEmpty = errors.New("namespace: directory not empty")     // ENOTEMPTY
	ErrInval    = errors.New("namespace: invalid argument")        // EINVAL
	ErrBusy     = errors.New("namespace: device or resource busy") // EBUSY
	ErrNoSpace  = errors.New("namespace: inode grant exhausted")   // ENOSPC
)

// Inode is one file or directory. Directory inodes carry their dentries
// (a single directory fragment; CephFS fragments large directories, and
// this Store keeps one fragment per directory). Following the paper's
// "large inodes" design (§IV-C), subtree policies live directly in the
// inode.
//
// The struct is 80 bytes, the top of an allocator size class, and every
// create allocates one: anything a directory alone needs goes into its
// dirFrag, not here (TestInodeSize pins the size).
type Inode struct {
	Ino    Ino
	Parent Ino // parent directory; RootIno's parent is itself

	// frag holds the dentries (directories only; files keep nil). It
	// sits beside Parent, before Name and Type: a scrub reads those four
	// of every inode, and within bytes 8–41 they share one cache line for
	// half of all 80-byte inodes (at byte 64, frag never would).
	frag *dirFrag

	Name  string
	Type  FileType
	Mode  uint32
	UID   uint32
	GID   uint32
	Size  uint64
	Mtime int64

	// Policy is the Cudele subtree policy stored in the large inode,
	// nil when the subtree inherits from its parent.
	Policy *policy.Policy
}

// IsDir reports whether the inode is a directory.
func (in *Inode) IsDir() bool { return in.Type == TypeDir }

// NumChildren returns the number of dentries of a directory inode.
func (in *Inode) NumChildren() int { return in.frag.len() }

// dirFrag is a directory's fragment: the dentry table and, once the
// directory has been listed, an ordered snapshot of its names, with the
// snapshot's inode column once it has been walked.
//
// The snapshot is immutable. link, add and unlink — the only writers of
// the table — drop it and the next listing builds a new one, so a slice
// handed out earlier keeps describing the directory as it was. It is never
// edited in place: a sorted insert would make a create O(n) in its
// directory, and a directory nobody lists should pay nothing for being
// listable. It lives and dies with its inode; a table keyed by Ino would
// outlive PruneExport and serve a stale listing when a migration brings
// the same inode numbers back.
type dirFrag struct {
	ents Dentries
	// names is the sorted dentry names with cap == len, nil when the
	// directory changed since it was last listed (or never was).
	names []string
	// inos is names' inode column, inos[i] the inode names[i] links to:
	// built by the first walk of a snapshot, never by a listing, and nil
	// until then and whenever names is. A walk reads a name's inode from
	// it rather than looking the name up again.
	inos []Ino
}

func newDirFrag() *dirFrag { return &dirFrag{} }

// dentries returns the inode's fragment for writing, creating it when a
// hand-built or repaired inode has none.
func (in *Inode) dentries() *dirFrag {
	if in.frag == nil {
		in.frag = newDirFrag()
	}
	return in.frag
}

func (f *dirFrag) len() int {
	if f == nil {
		return 0
	}
	return f.ents.Len()
}

func (f *dirFrag) lookup(name string) (Ino, bool) {
	if f == nil {
		return 0, false
	}
	return f.ents.Get(name)
}

// link adds or repoints dentry name. With add and unlink it is the only
// code that writes a dentry table, so no mutation can forget the
// invalidation.
func (f *dirFrag) link(name string, ino Ino) {
	f.ents.Set(name, ino)
	f.names, f.inos = nil, nil
}

// find looks name up once: the inode it names and whether it is there,
// and where add puts it when it is not, so that a create looks its name
// up once. name must not be empty.
func (f *dirFrag) find(name string) (Ino, probe, bool) {
	e, _, pr := f.ents.find(name)
	if e == nil {
		return 0, pr, false
	}
	return e.ino, pr, true
}

// add links name, which find just reported missing with pr; nothing
// may have written the fragment in between.
func (f *dirFrag) add(pr probe, name string, ino Ino) {
	f.ents.insert(pr, name, ino)
	f.names, f.inos = nil, nil
}

// unlink removes dentry name.
func (f *dirFrag) unlink(name string) {
	f.ents.Delete(name)
	f.names, f.inos = nil, nil
}

// ListStats counts ordered directory listings: every ReadDir, Walk step,
// EncodeDir and directory Check reports on is one listing (a healthy
// store's Check lists nothing), and a rebuild is a listing
// that found no snapshot and had to collect and sort the names. The
// difference is the listings served from a snapshot.
type ListStats struct {
	Listings uint64
	Rebuilds uint64
}

// list returns the fragment's names in sorted order, from the snapshot
// when there is one. The result is shared: callers must not write to it.
func (f *dirFrag) list(st *ListStats) []string {
	st.Listings++
	if f == nil {
		return nil
	}
	if f.names == nil {
		st.Rebuilds++
		names := make([]string, 0, f.ents.Len())
		for name := range f.ents.All() {
			names = append(names, name)
		}
		sortNames(names)
		f.names = names[:len(names):len(names)]
	}
	return f.names
}

// column returns the fragment's names in sorted order and their inode
// column, building whichever is missing; both are shared, like list's.
func (f *dirFrag) column(st *ListStats) ([]string, []Ino) {
	names := f.list(st)
	if len(names) == 0 {
		return nil, nil
	}
	if f.inos == nil {
		inos := make([]Ino, len(names))
		for i, name := range names {
			inos[i], _ = f.ents.Get(name)
		}
		f.inos = inos
	}
	return names, f.inos
}

// inoAt returns the inode that name, entry i of a snapshot whose column
// is inos, links to now: from the column while the fragment still holds
// it, by lookup once a link or unlink dropped it.
func (f *dirFrag) inoAt(inos []Ino, i int, name string) Ino {
	if len(f.inos) > 0 && &f.inos[0] == &inos[0] {
		return inos[i]
	}
	ino, _ := f.ents.Get(name)
	return ino
}

// each calls fn for every dentry in name order and stops at the first
// error. fn may link or unlink: the iteration runs over the snapshot
// taken at entry, and fn gets the inode each name links to when it is
// called.
func (f *dirFrag) each(st *ListStats, fn func(name string, ino Ino) error) error {
	names, inos := f.column(st)
	for i, name := range names {
		if err := fn(name, f.inoAt(inos, i, name)); err != nil {
			return err
		}
	}
	return nil
}

// Store is the namespace metadata store.
type Store struct {
	inodes inoTable

	// nextIno is the store's own allocation pointer for server-assigned
	// inode numbers.
	nextIno Ino

	// reserved tracks inode ranges granted to decoupled clients so the
	// server-side allocator skips them (paper §IV-C).
	reserved []inoRange

	version uint64 // bumped on every mutation

	lists ListStats
}

type inoRange struct{ lo, hi Ino } // half-open [lo, hi)

// NewStore creates a store containing only the root directory.
func NewStore() *Store {
	s := &Store{
		inodes:  newInoTable(),
		nextIno: RootIno + 1,
	}
	s.inodes.put(&Inode{
		Ino:    RootIno,
		Parent: RootIno,
		Name:   "/",
		Type:   TypeDir,
		Mode:   0755,
		frag:   newDirFrag(),
	})
	return s
}

// Version returns the store's mutation counter.
func (s *Store) Version() uint64 { return s.version }

// ListStats returns the store's cumulative listing counters.
func (s *Store) ListStats() ListStats { return s.lists }

// Len returns the number of inodes, including the root.
func (s *Store) Len() int { return s.inodes.len() }

// Get returns the inode numbered ino.
func (s *Store) Get(ino Ino) (*Inode, error) {
	in := s.inodes.get(ino)
	if in == nil {
		return nil, fmt.Errorf("inode %d: %w", ino, ErrNotExist)
	}
	return in, nil
}

// Root returns the root directory inode.
func (s *Store) Root() *Inode {
	in, _ := s.Get(RootIno)
	return in
}

// Lookup resolves one dentry: name within directory parent.
func (s *Store) Lookup(parent Ino, name string) (*Inode, error) {
	dir, err := s.Get(parent)
	if err != nil {
		return nil, err
	}
	if !dir.IsDir() {
		return nil, LookupError(parent, name, ErrNotDir)
	}
	ci, ok := dir.frag.lookup(name)
	if !ok {
		return nil, LookupError(parent, name, ErrNotExist)
	}
	return s.Get(ci)
}

// Child returns the inode that dentry name of directory parent points at,
// nil when there is no such dentry or parent is no directory. It is Lookup
// for a caller that only asks whether: a miss builds no error.
func (s *Store) Child(parent Ino, name string) *Inode {
	dir := s.inodes.get(parent)
	if dir == nil || !dir.IsDir() {
		return nil
	}
	ci, ok := dir.frag.lookup(name)
	if !ok {
		return nil
	}
	return s.inodes.get(ci)
}

// LookupError is the error Lookup returns when directory parent has no
// dentry name (err is ErrNotExist) or parent is no directory (ErrNotDir).
// A caller that learns of the miss as the bare sentinel, a client from
// its lookup RPC, names the entry with it.
func LookupError(parent Ino, name string, err error) error {
	return &lookupError{name, parent, err}
}

// lookupError is a failed Lookup. Its text is rendered only when someone
// prints it.
type lookupError struct {
	name   string
	parent Ino
	err    error // ErrNotExist or ErrNotDir
}

func (e *lookupError) Error() string {
	return fmt.Sprintf("lookup %q in inode %d: %v", e.name, e.parent, e.err)
}

func (e *lookupError) Unwrap() error { return e.err }

// PathParts iterates the components of an absolute path without
// allocating: every component is a substring of the (cleaned) input.
// It is how every resolution splits a path: a per-lookup []string from
// strings.Split was a measurable share of the simulation's allocations.
type PathParts struct {
	rest string
}

// SplitIter returns an iterator over p's components. Paths already in
// clean form ("/a/b/c") — the common case, since clients build paths with
// path.Join — cost no allocation at all; unclean input falls back to one
// path.Clean. The components are those of strings.Split on the cleaned
// path, without its leading slash.
func SplitIter(p string) PathParts {
	if !isCleanPath(p) {
		p = path.Clean("/" + p)
	}
	if p == "/" {
		return PathParts{}
	}
	return PathParts{rest: p[1:]}
}

// Next returns the next component and whether one was present.
func (it *PathParts) Next() (string, bool) {
	if it.rest == "" {
		return "", false
	}
	if i := strings.IndexByte(it.rest, '/'); i >= 0 {
		comp := it.rest[:i]
		it.rest = it.rest[i+1:]
		return comp, true
	}
	comp := it.rest
	it.rest = ""
	return comp, true
}

// isCleanPath reports whether p is already in path.Clean("/"+p) form: it
// starts with "/", has no trailing slash, and no empty, "." or ".."
// components.
func isCleanPath(p string) bool {
	if p == "/" {
		return true
	}
	if len(p) < 2 || p[0] != '/' || p[len(p)-1] == '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			switch p[start:i] {
			case "", ".", "..":
				return false
			}
			start = i + 1
		}
	}
	return true
}

// Resolve walks an absolute path to its inode.
func (s *Store) Resolve(p string) (*Inode, error) {
	cur := s.Root()
	for it := SplitIter(p); ; {
		comp, ok := it.Next()
		if !ok {
			return cur, nil
		}
		next, err := s.Lookup(cur.Ino, comp)
		if err != nil {
			return nil, fmt.Errorf("resolve %q: %w", p, err)
		}
		cur = next
	}
}

// PathOf reconstructs the absolute path of ino by walking parents: once
// to size the path, then again to fill one exact-length buffer from its
// end, so the path is the one allocation.
func (s *Store) PathOf(ino Ino) (string, error) {
	if ino == RootIno {
		return "/", nil
	}
	in, err := s.Get(ino)
	if err != nil {
		return "", err
	}
	n := 0
	for cur := in; cur.Ino != RootIno; {
		n += 1 + len(cur.Name)
		if cur, err = s.Get(cur.Parent); err != nil {
			return "", err
		}
	}
	buf := make([]byte, n)
	for cur := in; cur.Ino != RootIno; cur = s.inodes.get(cur.Parent) {
		n -= len(cur.Name)
		copy(buf[n:], cur.Name)
		n--
		buf[n] = '/'
	}
	// buf is never written again, as in strings.Builder.String.
	return unsafe.String(unsafe.SliceData(buf), len(buf)), nil
}

// AllocIno returns a fresh server-assigned inode number, skipping ranges
// reserved for decoupled clients and numbers already in use.
func (s *Store) AllocIno() Ino {
	for {
		ino := s.nextIno
		s.nextIno++
		if s.inodes.get(ino) != nil {
			continue
		}
		if s.inReserved(ino) {
			continue
		}
		return ino
	}
}

// SetInoFloor raises the server-side allocation pointer to at least
// floor. Metadata ranks partitioning one namespace call this with
// disjoint bands so their server-assigned numbers never collide.
func (s *Store) SetInoFloor(floor Ino) {
	if s.nextIno < floor {
		s.nextIno = floor
	}
}

func (s *Store) inReserved(ino Ino) bool {
	for _, r := range s.reserved {
		if ino >= r.lo && ino < r.hi {
			return true
		}
	}
	return false
}

// ReserveRange records [lo, lo+n) as granted to a decoupled client so the
// server-side allocator skips it. Recording a range the store already
// holds is a no-op: a retried import or a subtree migrating home
// re-installs the grant its client held all along. Any other overlap is
// kept, and Check reports it.
func (s *Store) ReserveRange(lo Ino, n uint64) error {
	if lo == 0 || n == 0 {
		return fmt.Errorf("reserve [%d,+%d): %w", lo, n, ErrInval)
	}
	if r := (inoRange{lo: lo, hi: lo + Ino(n)}); !slices.Contains(s.reserved, r) {
		s.reserved = append(s.reserved, r)
	}
	return nil
}

// ReservedRanges returns the number of active grants.
func (s *Store) ReservedRanges() int { return len(s.reserved) }

func (s *Store) insertChild(dir *Inode, in *Inode) {
	dir.dentries().link(in.Name, in.Ino)
	s.inodes.put(in)
	s.version++
}

// CreateAttrs carries optional attributes for Create/Mkdir.
type CreateAttrs struct {
	Mode  uint32
	UID   uint32
	GID   uint32
	Mtime int64
	// Ino, when non-zero, is the caller-supplied inode number (from a
	// decoupled client's grant). Zero means server-assigned.
	Ino Ino
}

func (s *Store) createCommon(parent Ino, name string, typ FileType, attrs CreateAttrs) (*Inode, error) {
	if name == "" || strings.Contains(name, "/") {
		return nil, fmt.Errorf("create %q: %w", name, ErrInval)
	}
	dir, err := s.Get(parent)
	if err != nil {
		return nil, err
	}
	if !dir.IsDir() {
		return nil, fmt.Errorf("create %q in inode %d: %w", name, parent, ErrNotDir)
	}
	_, pr, found := dir.dentries().find(name)
	if found {
		return nil, fmt.Errorf("create %q in inode %d: %w", name, parent, ErrExist)
	}
	return s.add(dir, pr, name, typ, attrs)
}

// add creates the typ inode name in directory dir, linking it at pr,
// where dir's fragment's find just reported name missing; nothing may
// have written the fragment in between.
func (s *Store) add(dir *Inode, pr probe, name string, typ FileType, attrs CreateAttrs) (*Inode, error) {
	ino := attrs.Ino
	if ino == 0 {
		ino = s.AllocIno()
	} else if s.inodes.get(ino) != nil {
		return nil, fmt.Errorf("create %q: inode %d: %w", name, ino, ErrExist)
	}
	in := &Inode{
		Ino:    ino,
		Parent: dir.Ino,
		Name:   name,
		Type:   typ,
		Mode:   attrs.Mode,
		UID:    attrs.UID,
		GID:    attrs.GID,
		Mtime:  attrs.Mtime,
	}
	if typ == TypeDir {
		in.frag = newDirFrag()
	}
	dir.frag.add(pr, name, ino)
	s.inodes.put(in)
	s.version++
	return in, nil
}

// probeChild looks dentry name of directory parent up once, for a caller
// that may go on to create it: the inode the dentry names, nil when there
// is none, and, when name is absent (absent true), the directory and
// where add links the name. A parent that is no directory and a dentry
// naming no inode are never absent: createCommon says why. name must not
// be empty.
func (s *Store) probeChild(parent Ino, name string) (cur, dir *Inode, pr probe, absent bool) {
	dir = s.inodes.get(parent)
	if dir == nil || !dir.IsDir() {
		return nil, nil, probe{}, false
	}
	ino, pr, found := dir.dentries().find(name)
	if found {
		return s.inodes.get(ino), nil, probe{}, false
	}
	return nil, dir, pr, true
}

// Create adds a regular file dentry to directory parent.
func (s *Store) Create(parent Ino, name string, attrs CreateAttrs) (*Inode, error) {
	return s.createCommon(parent, name, TypeFile, attrs)
}

// Mkdir adds a directory dentry to directory parent.
func (s *Store) Mkdir(parent Ino, name string, attrs CreateAttrs) (*Inode, error) {
	return s.createCommon(parent, name, TypeDir, attrs)
}

// MkdirAll creates every missing directory along absolute path p and
// returns the final directory.
func (s *Store) MkdirAll(p string, attrs CreateAttrs) (*Inode, error) {
	cur := s.Root()
	for it := SplitIter(p); ; {
		comp, ok := it.Next()
		if !ok {
			return cur, nil
		}
		next, err := s.Lookup(cur.Ino, comp)
		if errors.Is(err, ErrNotExist) {
			a := attrs
			a.Ino = 0
			next, err = s.Mkdir(cur.Ino, comp, a)
		}
		if err != nil {
			return nil, err
		}
		if !next.IsDir() {
			return nil, fmt.Errorf("mkdirall %q: %q: %w", p, comp, ErrNotDir)
		}
		cur = next
	}
}

// Unlink removes the file dentry name from parent.
func (s *Store) Unlink(parent Ino, name string) error {
	victim, err := s.Lookup(parent, name)
	if err != nil {
		return err
	}
	if victim.IsDir() {
		return fmt.Errorf("unlink %q: %w", name, ErrIsDir)
	}
	dir, _ := s.Get(parent)
	dir.frag.unlink(name)
	s.inodes.del(victim.Ino)
	s.version++
	return nil
}

// Rmdir removes the empty directory dentry name from parent.
func (s *Store) Rmdir(parent Ino, name string) error {
	victim, err := s.Lookup(parent, name)
	if err != nil {
		return err
	}
	if !victim.IsDir() {
		return fmt.Errorf("rmdir %q: %w", name, ErrNotDir)
	}
	if victim.NumChildren() > 0 {
		return fmt.Errorf("rmdir %q: %w", name, ErrNotEmpty)
	}
	dir, _ := s.Get(parent)
	dir.frag.unlink(name)
	s.inodes.del(victim.Ino)
	s.version++
	return nil
}

// Rename moves dentry (srcParent, srcName) to (dstParent, dstName). An
// existing destination file is replaced; an existing destination directory
// must be empty. Renaming a directory under its own descendant fails with
// ErrInval.
func (s *Store) Rename(srcParent Ino, srcName string, dstParent Ino, dstName string) error {
	if dstName == "" || strings.Contains(dstName, "/") {
		return fmt.Errorf("rename to %q: %w", dstName, ErrInval)
	}
	src, err := s.Lookup(srcParent, srcName)
	if err != nil {
		return err
	}
	dstDir, err := s.Get(dstParent)
	if err != nil {
		return err
	}
	if !dstDir.IsDir() {
		return fmt.Errorf("rename into inode %d: %w", dstParent, ErrNotDir)
	}
	// No-op rename.
	if srcParent == dstParent && srcName == dstName {
		return nil
	}
	// A directory must not be moved under itself.
	if src.IsDir() {
		for cur := dstDir; ; {
			if cur.Ino == src.Ino {
				return fmt.Errorf("rename %q under itself: %w", srcName, ErrInval)
			}
			if cur.Ino == RootIno {
				break
			}
			cur, err = s.Get(cur.Parent)
			if err != nil {
				return err
			}
		}
	}
	// Replace semantics for an existing destination.
	if exIno, exists := dstDir.frag.lookup(dstName); exists {
		ex, err := s.Get(exIno)
		if err != nil {
			return err
		}
		switch {
		case ex.IsDir() && !src.IsDir():
			return fmt.Errorf("rename %q over directory: %w", srcName, ErrIsDir)
		case !ex.IsDir() && src.IsDir():
			return fmt.Errorf("rename directory over %q: %w", dstName, ErrNotDir)
		case ex.IsDir() && ex.NumChildren() > 0:
			return fmt.Errorf("rename over %q: %w", dstName, ErrNotEmpty)
		}
		s.inodes.del(ex.Ino)
	}
	srcDir, _ := s.Get(srcParent)
	srcDir.frag.unlink(srcName)
	src.Parent = dstParent
	src.Name = dstName
	dstDir.dentries().link(dstName, src.Ino)
	s.version++
	return nil
}

// SetAttr updates attributes of ino. Zero-valued fields of attrs are still
// applied (this is a full setattr, like the journal event).
func (s *Store) SetAttr(ino Ino, mode, uid, gid uint32, size uint64, mtime int64) error {
	in, err := s.Get(ino)
	if err != nil {
		return err
	}
	in.Mode, in.UID, in.GID, in.Size, in.Mtime = mode, uid, gid, size, mtime
	s.version++
	return nil
}

// ReadDir returns the dentry names of directory ino in sorted order.
//
// The slice is the directory's listing snapshot, shared with every other
// reader of the same listing: treat it as read-only (do not sort, store
// into or reslice-and-append through it; cap == len, so a plain append
// copies). It is never changed after it is returned — a later create,
// unlink or rename in the directory makes the next ReadDir build a new
// slice — so a caller that keeps it keeps a consistent, older listing.
// An unchanged directory is listed without sorting or allocating.
func (s *Store) ReadDir(ino Ino) ([]string, error) {
	dir, err := s.Get(ino)
	if err != nil {
		return nil, err
	}
	if !dir.IsDir() {
		return nil, fmt.Errorf("readdir inode %d: %w", ino, ErrNotDir)
	}
	return dir.frag.list(&s.lists), nil
}

// Walk visits every inode under root (inclusive) in depth-first, sorted
// order. The callback receives the inode's absolute path.
func (s *Store) Walk(root Ino, fn func(p string, in *Inode) error) error {
	base, err := s.PathOf(root)
	if err != nil {
		return err
	}
	return s.walk(base, s.inodes.get(root), func(p []byte, in *Inode) error {
		return fn(string(p), in)
	})
}

// walk runs fn over in, at path base, and every inode under it in Walk's
// order. fn gets each inode's path in the walk's buffer, valid only until
// it returns. A dentry naming no inode ends the walk with Get's error.
func (s *Store) walk(base string, in *Inode, fn func(p []byte, in *Inode) error) error {
	return s.walkSorted(base, in, func(p []byte, _ *Inode, _ string, ino Ino, in *Inode) (bool, error) {
		if in == nil {
			_, err := s.Get(ino)
			return false, err
		}
		return in.IsDir(), fn(p, in)
	})
}

// walkVisit is called for each entry a sorted walk reaches. p is the
// entry's absolute path, valid only until visit returns: the walk keeps
// every path in one buffer, extended by a name on the way down and cut
// back on the way up, so it builds no string. dir and name are the
// directory and dentry the entry was reached through (nil and "" for the
// walk's root), ino the dentry's inode number and in that inode, nil when
// the store has none. visit returns whether to descend into in, which it
// may only do for a directory.
type walkVisit func(p []byte, dir *Inode, name string, ino Ino, in *Inode) (bool, error)

// walkSorted is the package's one depth-first walk in sorted name order:
// Walk, Subtree, SEImageOf and Check's report run on it. It visits in, at
// path base, and then the entries under each directory visit descends
// into, each directory listed once from its snapshot, and stops at the
// first error.
func (s *Store) walkSorted(base string, in *Inode, visit walkVisit) error {
	p := append(make([]byte, 0, 256), base...)
	descend, err := visit(p, nil, "", in.Ino, in)
	if err != nil || !descend {
		return err
	}
	return s.walkDir(&p, in, visit)
}

// walkDir visits the entries of dir, whose path is *p, and descends as
// visit says. It leaves *p as it found it, perhaps in a larger buffer.
func (s *Store) walkDir(p *[]byte, dir *Inode, visit walkVisit) error {
	n := len(*p)
	names, inos := dir.frag.column(&s.lists)
	for i, name := range names {
		ino := dir.frag.inoAt(inos, i, name)
		path := (*p)[:n]
		if n > 1 {
			path = append(path, '/')
		}
		*p = append(path, name...)
		in := s.inodes.get(ino)
		descend, err := visit(*p, dir, name, ino, in)
		if err == nil && descend {
			err = s.walkDir(p, in, visit)
		}
		if err != nil {
			return err
		}
	}
	*p = (*p)[:n]
	return nil
}

// joinPath is the path of the entry name in the directory at path dir.
func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// PruneExport removes every inode under the directory at absolute path p
// and leaves p an empty directory with no policy. The exporting rank calls
// this when a handoff commits: the subtree's inodes now live on the
// importer, but p's dentry belongs to its parent's directory, which stays
// here, and a directory object names each entry with its attributes. So
// p's own inode stays as the bound of the parent's listing, just as the
// ancestor chain an importer installs names the directories beside the
// subtree. Each removed inode is returned with its name and the directory
// that held it, in ascending inode order (the exporter keeps them to
// redirect a request that names one); pruning the root is refused.
func (s *Store) PruneExport(p string) ([]Pruned, error) {
	_, victims, err := s.Subtree(p)
	if err != nil {
		return nil, err
	}
	root, err := s.Get(victims[0])
	if err != nil {
		return nil, err
	}
	if root.Ino == RootIno {
		return nil, fmt.Errorf("prune %q: %w", p, ErrInval)
	}
	pruned := make([]Pruned, 0, len(victims)-1)
	for _, ino := range victims[1:] {
		if in := s.inodes.get(ino); in != nil {
			pruned = append(pruned, Pruned{Ino: ino, Parent: in.Parent, Name: in.Name})
		}
		s.inodes.del(ino)
	}
	root.frag, root.Policy = newDirFrag(), nil
	s.version++
	slices.SortFunc(pruned, func(a, b Pruned) int { return cmp.Compare(a.Ino, b.Ino) })
	return pruned, nil
}

// Pruned is one inode PruneExport removed: its number, the directory that
// held it and its name there.
type Pruned struct {
	Ino, Parent Ino
	Name        string
}

// PruneSubtree detaches the directory at absolute path p from its parent
// and removes every inode under it, the way a merge removes a directory.
// The inode count removed is returned; pruning the root is refused.
func (s *Store) PruneSubtree(p string) (int, error) {
	_, victims, err := s.Subtree(p)
	if err != nil {
		return 0, err
	}
	root, err := s.Get(victims[0])
	if err != nil {
		return 0, err
	}
	if root.Ino == RootIno {
		return 0, fmt.Errorf("prune %q: %w", p, ErrInval)
	}
	parent, err := s.Get(root.Parent)
	if err != nil {
		return 0, err
	}
	parent.frag.unlink(root.Name)
	for _, ino := range victims {
		s.inodes.del(ino)
	}
	s.version++
	return len(victims), nil
}

// Subtree walks the directory at absolute path p once and returns the two
// things a subtree's directory objects are made from. dirs is the order
// they carry it into another store in, and the only one: the ancestor
// chain from the namespace root down to the subtree's parent — the other
// store may never have seen the ancestry, and InstallDir needs each
// directory's parent in place — then the subtree's own directories in
// Walk order, parents before children. inos is every inode at or under p
// in Walk order, the subtree root first.
func (s *Store) Subtree(p string) (dirs, inos []Ino, err error) {
	root, err := s.Resolve(p)
	if err != nil {
		return nil, nil, err
	}
	if !root.IsDir() {
		return nil, nil, fmt.Errorf("subtree %q: %w", p, ErrNotDir)
	}
	for in := root; in.Ino != RootIno; {
		if in, err = s.Get(in.Parent); err != nil {
			return nil, nil, err
		}
		dirs = append(dirs, in.Ino)
	}
	slices.Reverse(dirs)
	err = s.walk(p, root, func(_ []byte, in *Inode) error {
		inos = append(inos, in.Ino)
		if in.IsDir() {
			dirs = append(dirs, in.Ino)
		}
		return nil
	})
	return dirs, inos, err
}

// ApplyEvent implements journal.Target: it replays one journal event onto
// the store. This is the recovery/merge code path shared by Stream replay,
// Volatile Apply, and Nonvolatile Apply (paper §IV-B).
func (s *Store) ApplyEvent(ev *journal.Event) error {
	switch ev.Type {
	case journal.EvCreate, journal.EvMkdir:
		attrs := CreateAttrs{
			Mode: ev.Mode, UID: ev.UID, GID: ev.GID,
			Mtime: ev.Mtime, Ino: Ino(ev.Ino),
		}
		var err error
		if ev.Type == journal.EvMkdir {
			_, err = s.Mkdir(Ino(ev.Parent), ev.Name, attrs)
		} else {
			_, err = s.Create(Ino(ev.Parent), ev.Name, attrs)
		}
		// Merge semantics: the decoupled namespace's updates take
		// priority, so a create over an existing interfering dentry
		// overwrites it (paper §III-C "interfere: allow").
		if errors.Is(err, ErrExist) {
			if ev.Type == journal.EvMkdir {
				return nil // directory already materialized
			}
			if rmErr := s.Unlink(Ino(ev.Parent), ev.Name); rmErr != nil {
				return err
			}
			_, err = s.Create(Ino(ev.Parent), ev.Name, attrs)
		}
		return err
	case journal.EvUnlink:
		return s.Unlink(Ino(ev.Parent), ev.Name)
	case journal.EvRmdir:
		return s.Rmdir(Ino(ev.Parent), ev.Name)
	case journal.EvRename:
		return s.Rename(Ino(ev.Parent), ev.Name, Ino(ev.NewParent), ev.NewName)
	case journal.EvSetAttr:
		return s.SetAttr(Ino(ev.Ino), ev.Mode, ev.UID, ev.GID, ev.Size, ev.Mtime)
	case journal.EvAllocRange:
		return s.ReserveRange(Ino(ev.Ino), ev.Size)
	case journal.EvExport:
		// Export-commit records mark an ownership handoff, not a
		// namespace mutation; replay skips them.
		return nil
	}
	return fmt.Errorf("apply %v: %w", ev.Type, ErrInval)
}

var _ journal.Target = (*Store)(nil)
