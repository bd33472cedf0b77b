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
// Inodes are found by number through a paged index (inotable.go), dentries
// by name through their directory's fragment (dirFrag). A Store has no
// lock of its own and even its reads write the index's remembered page: it
// belongs to one lock domain at a time — the daemon's whose store it is —
// or is read under Runtime.Exclusive.
//
// SEMerger (semerge.go) layers strong-eventual merging on a Store.
package namespace

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"

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
	Name   string
	Type   FileType
	Mode   uint32
	UID    uint32
	GID    uint32
	Size   uint64
	Mtime  int64

	// frag holds the dentries (directories only; files keep nil).
	frag *dirFrag

	// Policy is the Cudele subtree policy stored in the large inode,
	// nil when the subtree inherits from its parent.
	Policy *policy.Policy
}

// IsDir reports whether the inode is a directory.
func (in *Inode) IsDir() bool { return in.Type == TypeDir }

// NumChildren returns the number of dentries of a directory inode.
func (in *Inode) NumChildren() int { return in.frag.len() }

// dirFrag is a directory's fragment: the dentry map and, once the
// directory has been listed, an ordered snapshot of its names.
//
// The snapshot is immutable. link and unlink — the only writers of the
// map — drop it and the next listing builds a new one, so a slice handed
// out earlier keeps describing the directory as it was. It is never
// edited in place: a sorted insert would make a create O(n) in its
// directory, and a directory nobody lists should pay nothing for being
// listable. It lives and dies with its inode; a table keyed by Ino would
// outlive PruneSubtree and serve a stale listing when a migration brings
// the same inode numbers back.
type dirFrag struct {
	ents map[string]Ino
	// names is the sorted dentry names with cap == len, nil when the
	// directory changed since it was last listed (or never was).
	names []string
}

func newDirFrag() *dirFrag { return &dirFrag{ents: make(map[string]Ino)} }

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
	return len(f.ents)
}

func (f *dirFrag) lookup(name string) (Ino, bool) {
	if f == nil {
		return 0, false
	}
	ino, ok := f.ents[name]
	return ino, ok
}

// link adds or repoints dentry name. With unlink it is the only code
// that writes a dentry map, so no mutation can forget the invalidation.
func (f *dirFrag) link(name string, ino Ino) {
	f.ents[name] = ino
	f.names = nil
}

// unlink removes dentry name.
func (f *dirFrag) unlink(name string) {
	delete(f.ents, name)
	f.names = nil
}

// ListStats counts ordered directory listings: every ReadDir, Walk step,
// EncodeDir and Check visit is one listing, and a rebuild is a listing
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
		names := make([]string, 0, len(f.ents))
		for name := range f.ents {
			names = append(names, name)
		}
		sort.Strings(names)
		f.names = names[:len(names):len(names)]
	}
	return f.names
}

// each calls fn for every dentry in name order and stops at the first
// error. fn may link or unlink: the iteration runs over the snapshot
// taken at entry.
func (f *dirFrag) each(st *ListStats, fn func(name string, ino Ino) error) error {
	for _, name := range f.list(st) {
		if err := fn(name, f.ents[name]); err != nil {
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
		return nil, &lookupError{name, parent, ErrNotDir}
	}
	ci, ok := dir.frag.lookup(name)
	if !ok {
		return nil, &lookupError{name, parent, ErrNotExist}
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

// lookupError is a failed Lookup. Its text is rendered only when someone
// prints it: the frequent caller, a client's existence check before a
// create, asks errors.Is(err, ErrNotExist) and drops the error.
type lookupError struct {
	name   string
	parent Ino
	err    error // ErrNotExist or ErrNotDir
}

func (e *lookupError) Error() string {
	return fmt.Sprintf("lookup %q in inode %d: %v", e.name, e.parent, e.err)
}

func (e *lookupError) Unwrap() error { return e.err }

// SplitPath cleans p and splits it into components. The root is the empty
// list.
func SplitPath(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// PathParts iterates the components of an absolute path without
// allocating: every component is a substring of the (cleaned) input.
// It replaces SplitPath on the resolution hot paths, where the
// per-lookup []string from strings.Split was a measurable share of the
// simulation's allocations.
type PathParts struct {
	rest string
}

// SplitIter returns an iterator over p's components. Paths already in
// clean form ("/a/b/c") — the common case, since clients build paths with
// path.Join — cost no allocation at all; unclean input falls back to one
// path.Clean. Component order and content match SplitPath exactly.
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

// PathOf reconstructs the absolute path of ino by walking parents.
func (s *Store) PathOf(ino Ino) (string, error) {
	if ino == RootIno {
		return "/", nil
	}
	var parts []string
	cur, err := s.Get(ino)
	if err != nil {
		return "", err
	}
	for cur.Ino != RootIno {
		parts = append(parts, cur.Name)
		cur, err = s.Get(cur.Parent)
		if err != nil {
			return "", err
		}
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/"), nil
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
// holds is a no-op: a re-attach, a retried import or a subtree migrating
// home re-installs the grant its client held all along. Any other
// overlap is kept, and Check reports it.
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
	if _, exists := dir.frag.lookup(name); exists {
		return nil, fmt.Errorf("create %q in inode %d: %w", name, parent, ErrExist)
	}
	ino := attrs.Ino
	if ino == 0 {
		ino = s.AllocIno()
	} else if s.inodes.get(ino) != nil {
		return nil, fmt.Errorf("create %q: inode %d: %w", name, ino, ErrExist)
	}
	in := &Inode{
		Ino:    ino,
		Parent: parent,
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
	s.insertChild(dir, in)
	return in, nil
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
	return s.walk(base, root, fn)
}

func (s *Store) walk(p string, ino Ino, fn func(string, *Inode) error) error {
	in, err := s.Get(ino)
	if err != nil {
		return err
	}
	if err := fn(p, in); err != nil {
		return err
	}
	if !in.IsDir() {
		return nil
	}
	return in.frag.each(&s.lists, func(name string, child Ino) error {
		cp := p + "/" + name
		if p == "/" {
			cp = "/" + name
		}
		return s.walk(cp, child, fn)
	})
}

// PruneSubtree detaches the directory at absolute path p from its parent
// and removes every inode under it. The exporting rank calls this after a
// migration commits: the subtree's inodes now live on the importer. The
// inode count removed is returned; pruning the root is refused.
func (s *Store) PruneSubtree(p string) (int, error) {
	root, err := s.Resolve(p)
	if err != nil {
		return 0, err
	}
	if root.Ino == RootIno {
		return 0, fmt.Errorf("prune %q: %w", p, ErrInval)
	}
	var victims []Ino
	if err := s.Walk(root.Ino, func(_ string, in *Inode) error {
		victims = append(victims, in.Ino)
		return nil
	}); err != nil {
		return 0, err
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

// SubtreeInos returns the inode numbers of every inode at or under the
// directory rooted at absolute path p.
func (s *Store) SubtreeInos(p string) (map[Ino]bool, error) {
	root, err := s.Resolve(p)
	if err != nil {
		return nil, err
	}
	set := make(map[Ino]bool)
	err = s.Walk(root.Ino, func(_ string, in *Inode) error {
		set[in.Ino] = true
		return nil
	})
	return set, err
}

// SubtreeDirs returns the directories whose objects carry the subtree at
// absolute path p into another store, in install order: the ancestor
// chain from the namespace root down to the subtree's parent — the other
// store may never have seen the ancestry, and InstallDir needs each
// directory's parent in place — then the subtree's own directories in
// Walk order, parents before children.
func (s *Store) SubtreeDirs(p string) ([]Ino, error) {
	root, err := s.Resolve(p)
	if err != nil {
		return nil, err
	}
	if !root.IsDir() {
		return nil, fmt.Errorf("subtree %q: %w", p, ErrNotDir)
	}
	var dirs []Ino
	for in := root; in.Ino != RootIno; {
		if in, err = s.Get(in.Parent); err != nil {
			return nil, err
		}
		dirs = append(dirs, in.Ino)
	}
	slices.Reverse(dirs)
	err = s.Walk(root.Ino, func(_ string, in *Inode) error {
		if in.IsDir() {
			dirs = append(dirs, in.Ino)
		}
		return nil
	})
	return dirs, err
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
	case journal.EvUndo:
		// Undo records are speculative-mode client bookkeeping; the
		// merged namespace never sees the rolled-back op, so replay
		// skips them too.
		return nil
	}
	return fmt.Errorf("apply %v: %w", ev.Type, ErrInval)
}

var _ journal.Target = (*Store)(nil)
