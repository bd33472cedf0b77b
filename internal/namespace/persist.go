package namespace

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
)

// This file serializes directories for the RADOS-resident metadata store:
// a directory and its file inodes are stored together in one object to
// make scans fast (paper §IV-A). Subdirectories are referenced by inode
// number and live in their own objects.

const (
	dirMagic = "CUDELED\x01"
	// ObjectPool is the pool holding the metadata store's directory
	// objects.
	ObjectPool = "cephfs_metadata"
)

var dirCRC = crc32.MakeTable(crc32.Castagnoli)

// DirObjectName returns the object name for directory ino, mirroring
// CephFS's "<ino in hex>.<frag>" naming.
func DirObjectName(ino Ino) string {
	return fmt.Sprintf("%x.00000000", uint64(ino))
}

// DirEntry is one serialized dentry of a directory object.
type DirEntry struct {
	Name  string
	Ino   Ino
	Type  FileType
	Mode  uint32
	UID   uint32
	GID   uint32
	Size  uint64
	Mtime int64
}

// DirObject is the decoded form of a directory object: the directory's own
// inode attributes plus its dentries.
type DirObject struct {
	Ino     Ino
	Parent  Ino
	Name    string
	Mode    uint32
	Entries []DirEntry
}

func putStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// EncodeDir serializes directory ino and its dentries from the store.
func (s *Store) EncodeDir(ino Ino) ([]byte, error) {
	dir, err := s.Get(ino)
	if err != nil {
		return nil, err
	}
	if !dir.IsDir() {
		return nil, fmt.Errorf("encode dir %d: %w", ino, ErrNotDir)
	}
	body := make([]byte, 0, 64+32*dir.NumChildren())
	body = binary.AppendUvarint(body, uint64(dir.Ino))
	body = binary.AppendUvarint(body, uint64(dir.Parent))
	body = putStr(body, dir.Name)
	body = binary.AppendUvarint(body, uint64(dir.Mode))
	body = binary.AppendUvarint(body, uint64(dir.NumChildren()))
	err = dir.frag.each(&s.lists, func(name string, ci Ino) error {
		child, err := s.Get(ci)
		if err != nil {
			return err
		}
		body = putStr(body, name)
		body = binary.AppendUvarint(body, uint64(child.Ino))
		body = append(body, byte(child.Type))
		body = binary.AppendUvarint(body, uint64(child.Mode))
		body = binary.AppendUvarint(body, uint64(child.UID))
		body = binary.AppendUvarint(body, uint64(child.GID))
		body = binary.AppendUvarint(body, child.Size)
		body = binary.AppendUvarint(body, uint64(child.Mtime))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(dirMagic)+len(body)+4)
	out = append(out, dirMagic...)
	out = append(out, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(body, dirCRC))
	return append(out, crc[:]...), nil
}

type dirReader struct {
	buf []byte
	off int
}

func (r *dirReader) uvar() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("decode dir: %w", ErrInval)
	}
	r.off += n
	return v, nil
}

func (r *dirReader) str() (string, error) {
	n, err := r.uvar()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.buf)-r.off) {
		return "", fmt.Errorf("decode dir: truncated string: %w", ErrInval)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// DecodeDir parses a directory object produced by EncodeDir. An object
// no sound store encodes fails with ErrInval: inode 0 anywhere, or an
// entry that is not a file or directory, has no valid dentry name, or
// names the root, the directory itself or its parent — installing one
// would replace a directory inode with its own child.
func DecodeDir(data []byte) (*DirObject, error) {
	if len(data) < len(dirMagic)+4 {
		return nil, fmt.Errorf("decode dir: short object: %w", ErrInval)
	}
	if string(data[:len(dirMagic)]) != dirMagic {
		return nil, fmt.Errorf("decode dir: bad magic: %w", ErrInval)
	}
	body := data[len(dirMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, dirCRC) != want {
		return nil, fmt.Errorf("decode dir: checksum mismatch: %w", ErrInval)
	}
	r := &dirReader{buf: body}
	var d DirObject
	v, err := r.uvar()
	if err != nil {
		return nil, err
	}
	d.Ino = Ino(v)
	if d.Ino == 0 {
		return nil, fmt.Errorf("decode dir: inode 0: %w", ErrInval)
	}
	if v, err = r.uvar(); err != nil {
		return nil, err
	}
	d.Parent = Ino(v)
	if d.Name, err = r.str(); err != nil {
		return nil, err
	}
	if d.Ino != RootIno && (d.Name == "" || strings.Contains(d.Name, "/")) {
		// InstallDir links a directory it materializes under this name.
		return nil, fmt.Errorf("decode dir %d: bad name %q: %w", d.Ino, d.Name, ErrInval)
	}
	if v, err = r.uvar(); err != nil {
		return nil, err
	}
	d.Mode = uint32(v)
	n, err := r.uvar()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var e DirEntry
		if e.Name, err = r.str(); err != nil {
			return nil, err
		}
		if v, err = r.uvar(); err != nil {
			return nil, err
		}
		e.Ino = Ino(v)
		if r.off >= len(r.buf) {
			return nil, fmt.Errorf("decode dir: truncated entry: %w", ErrInval)
		}
		e.Type = FileType(r.buf[r.off])
		r.off++
		if v, err = r.uvar(); err != nil {
			return nil, err
		}
		e.Mode = uint32(v)
		if v, err = r.uvar(); err != nil {
			return nil, err
		}
		e.UID = uint32(v)
		if v, err = r.uvar(); err != nil {
			return nil, err
		}
		e.GID = uint32(v)
		if e.Size, err = r.uvar(); err != nil {
			return nil, err
		}
		if v, err = r.uvar(); err != nil {
			return nil, err
		}
		e.Mtime = int64(v)
		if e.Name == "" || strings.Contains(e.Name, "/") || e.Type > TypeDir ||
			e.Ino == 0 || e.Ino == RootIno || e.Ino == d.Ino || e.Ino == d.Parent {
			return nil, fmt.Errorf("decode dir %d: bad entry %q (ino %d, type %d): %w",
				d.Ino, e.Name, e.Ino, e.Type, ErrInval)
		}
		d.Entries = append(d.Entries, e)
	}
	return &d, nil
}

// InstallDir materializes a decoded directory object into the store,
// replacing the directory's current dentries and dropping its policy: an
// object carries no registration, so the directory has none until its
// rank adopts one. Missing parent directories cause ErrNotExist; callers
// load objects root-first.
func (s *Store) InstallDir(d *DirObject) error {
	dir, err := s.Get(d.Ino)
	if err != nil {
		// The directory itself may need materializing (recovery from
		// an empty store).
		if d.Ino == RootIno {
			return err
		}
		parent, perr := s.Get(d.Parent)
		if perr != nil {
			return perr
		}
		if !parent.IsDir() {
			return fmt.Errorf("install dir %d: %w", d.Ino, ErrNotDir)
		}
		dir = &Inode{
			Ino: d.Ino, Parent: d.Parent, Name: d.Name,
			Type: TypeDir, Mode: d.Mode,
			frag: newDirFrag(),
		}
		s.insertChild(parent, dir)
	}
	dir.Policy = nil
	// Drop stale file dentries, keep subdirectory dentries that still
	// appear, then install the decoded entries.
	incoming := make(map[string]DirEntry, len(d.Entries))
	for _, e := range d.Entries {
		incoming[e.Name] = e
	}
	frag := dir.dentries()
	for name, ci := range frag.ents.All() {
		if _, ok := incoming[name]; !ok {
			child, _ := s.Get(ci)
			if child != nil && child.IsDir() {
				continue // directory contents live in their own object
			}
			frag.unlink(name)
			s.inodes.del(ci)
		}
	}
	for _, e := range d.Entries {
		if existing, ok := frag.lookup(e.Name); ok {
			in, _ := s.Get(existing)
			if in != nil {
				in.Mode, in.UID, in.GID, in.Size, in.Mtime = e.Mode, e.UID, e.GID, e.Size, e.Mtime
			}
			continue
		}
		in := &Inode{
			Ino: e.Ino, Parent: d.Ino, Name: e.Name, Type: e.Type,
			Mode: e.Mode, UID: e.UID, GID: e.GID, Size: e.Size, Mtime: e.Mtime,
		}
		if e.Type == TypeDir {
			in.frag = newDirFrag()
		}
		s.insertChild(dir, in)
	}
	s.version++
	return nil
}

// InstallDirs installs decoded directory objects parents first, whatever
// order they arrive in — the restart reads them in pool listing order, a
// client its ancestor chain leaf first. An object's depth is the length
// of its chain of Parent links to other objects in objs; objs is sorted
// in place by depth, stably, and installed in that order. A chain that
// loops fails before anything is installed; an object whose parent is
// neither in objs nor in the store fails at its install. Either error
// names the object.
func (s *Store) InstallDirs(objs []*DirObject) error {
	byIno := make(map[Ino]*DirObject, len(objs))
	for _, obj := range objs {
		byIno[obj.Ino] = obj
	}
	depth := make(map[*DirObject]int, len(objs))
	for _, obj := range objs {
		d := 0
		for a := obj; a.Ino != RootIno && byIno[a.Parent] != nil; a = byIno[a.Parent] {
			if d++; d > len(objs) {
				return fmt.Errorf("directory object %s: parent cycle: %w", DirObjectName(obj.Ino), ErrInval)
			}
		}
		depth[obj] = d
	}
	slices.SortStableFunc(objs, func(a, b *DirObject) int { return cmp.Compare(depth[a], depth[b]) })
	for _, obj := range objs {
		if err := s.InstallDir(obj); err != nil {
			return fmt.Errorf("orphan directory object %s: %w", DirObjectName(obj.Ino), err)
		}
	}
	return nil
}

// Equal reports whether two stores describe the same namespace: the same
// paths with the same types and attributes (inode numbers may differ, as
// they do between an RPC namespace and a merged decoupled namespace).
func Equal(a, b *Store) bool {
	type node struct {
		typ  FileType
		mode uint32
		size uint64
	}
	collect := func(s *Store) (map[string]node, error) {
		m := make(map[string]node)
		err := s.Walk(RootIno, func(p string, in *Inode) error {
			m[p] = node{typ: in.Type, mode: in.Mode, size: in.Size}
			return nil
		})
		return m, err
	}
	ma, errA := collect(a)
	mb, errB := collect(b)
	if errA != nil || errB != nil || len(ma) != len(mb) {
		return false
	}
	for p, na := range ma {
		if nb, ok := mb[p]; !ok || na != nb {
			return false
		}
	}
	return true
}
