package rados

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// FileStore persists objects as files under a data directory — the real
// backend's durability layer. Every update follows the same protocol,
// written once, in replace:
//
//	write <object>.tmpN  →  fsync(tmp)  →  rename(tmp, <object>)  →  fsync(dir)
//
// The rename is the commit point. A crash before it leaves the previous
// complete image (or nothing, for a new object) plus an ignorable tmp
// file; a crash after it leaves the new complete image. There is no
// state in which a reader observes a torn object, which is what lets
// DurGlobal keep its meaning on a real disk: persistence is a protocol,
// not a single write call.
//
// Put and Remove are safe to call concurrently (the object store calls
// them outside its lock domain, via Task.Blocking). Two
// concurrent Puts of the same object each build a complete image under
// a unique tmp name and the later rename wins, so the file is always
// some complete version.
type FileStore struct {
	dir string
	seq atomic.Uint64

	// mu serializes directory fsyncs; file contents need no locking
	// (unique tmp names + atomic rename).
	mu sync.Mutex

	// CrashAfterTmpWrite, when true, makes a write stop after the tmp file
	// is written and fsynced — before the rename — and return
	// ErrSimulatedCrash. It models a kill at the most dangerous moment
	// of a GlobalPersist; the kill-during-persist test uses it.
	CrashAfterTmpWrite bool
}

// ErrSimulatedCrash is returned by Put when CrashAfterTmpWrite is set.
var ErrSimulatedCrash = errors.New("rados: simulated crash before rename")

// storedObject is the on-disk encoding of one object.
type storedObject struct {
	Data []byte
	Omap map[string][]byte
}

// OpenFileStore creates (or reopens) a file store rooted at dir.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (fs *FileStore) Dir() string { return fs.dir }

// fileName maps an object id to a flat, filesystem-safe file name.
func fileName(oid ObjectID) string {
	return url.QueryEscape(oid.Pool) + "," + url.QueryEscape(oid.Name)
}

func parseFileName(name string) (ObjectID, bool) {
	pool, obj, ok := strings.Cut(name, ",")
	if !ok {
		return ObjectID{}, false
	}
	p, err1 := url.QueryUnescape(pool)
	n, err2 := url.QueryUnescape(obj)
	if err1 != nil || err2 != nil {
		return ObjectID{}, false
	}
	return ObjectID{Pool: p, Name: n}, true
}

// Put durably replaces oid's on-disk image with data+omap. Concurrent
// Puts each fill a tmp file nobody else names.
func (fs *FileStore) Put(oid ObjectID, data []byte, omap map[string][]byte) error {
	name := fileName(oid)
	return fs.replace(name, fmt.Sprintf("%s.tmp%d", name, fs.seq.Add(1)), os.O_EXCL, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(&storedObject{Data: data, Omap: omap})
	})
}

// WriteFile durably replaces the plain file name in the store's directory
// with data — for a file with one writer that is not an object, the
// client's Local Persist image. The tmp name is fixed, so a tmp file a
// killed writer left behind is overwritten, not accumulated.
func (fs *FileStore) WriteFile(name string, data []byte) error {
	return fs.replace(name, name+".tmp", os.O_TRUNC, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// replace is the durable-write protocol, the only code in the repository
// that makes a file durable: create tmp (flag says how: O_EXCL for a
// unique name, O_TRUNC for a reused one), fill it, fsync it, rename it
// over name — the commit point — and fsync the directory. Any failure
// before the rename removes the tmp file and leaves the previous image
// in place; the body goes straight from fill into the file, so nothing is
// buffered twice.
func (fs *FileStore) replace(name, tmp string, flag int, fill func(w io.Writer) error) error {
	final, tmp := filepath.Join(fs.dir, name), filepath.Join(fs.dir, tmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|flag, 0o644)
	if err != nil {
		return err
	}
	if err = fill(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && fs.CrashAfterTmpWrite {
		return ErrSimulatedCrash
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return fs.syncDir()
}

// Remove durably deletes oid's on-disk image. Removing a missing object
// is a no-op (memory is authoritative for existence errors).
func (fs *FileStore) Remove(oid ObjectID) error {
	err := os.Remove(filepath.Join(fs.dir, fileName(oid)))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return fs.syncDir()
}

// syncDir fsyncs the store directory so renames and unlinks are durable.
func (fs *FileStore) syncDir() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := os.Open(fs.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads every committed object image under the store directory,
// removing leftover tmp files from interrupted Puts (they are
// uncommitted by definition). It is the recovery path: AttachStore uses
// it to rebuild the in-memory object map after a restart or crash.
func (fs *FileStore) Load() (map[ObjectID]*storedObject, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	out := make(map[ObjectID]*storedObject)
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(fs.dir, name))
			continue
		}
		oid, ok := parseFileName(name)
		if !ok {
			continue
		}
		f, err := os.Open(filepath.Join(fs.dir, name))
		if err != nil {
			return nil, err
		}
		var so storedObject
		err = gob.NewDecoder(f).Decode(&so)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("rados: decode %s: %w", name, err)
		}
		out[oid] = &so
	}
	return out, nil
}

// AttachStore makes the cluster durable: existing on-disk objects are
// loaded into the in-memory map (recovery), and from then on every
// mutation is written through to disk with the write→fsync→rename
// protocol. With a store attached the simulated device charges are
// skipped — the fsync is the cost — so attach only on the real backend.
func (c *Cluster) AttachStore(fs *FileStore) error {
	loaded, err := fs.Load()
	if err != nil {
		return err
	}
	for oid, so := range loaded {
		c.objects[oid] = &object{data: so.Data, omap: so.Omap}
	}
	c.store = fs
	return nil
}

// Store returns the attached file store, nil when the cluster is purely
// simulated.
func (c *Cluster) Store() *FileStore { return c.store }
