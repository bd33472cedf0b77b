package rados

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// FileStore makes the real backend's objects durable in one append-only
// log, objects.log, under a data directory. Memory stays authoritative
// (reads never touch the file); every mutation appends one CRC-framed
// record and is acknowledged only after a Sync that covers it:
//
//	stage  (inside the caller's lock domain) append the record to the
//	       staging buffer and take its LSN, so log order is memory order —
//	       which deltas (append, omap-set) need and whole images did not
//	Commit (outside it) whoever gets the commit lock first writes and
//	       syncs everything staged; the committers queued behind that
//	       leader find their LSN already durable — the group commit
//
// A crash leaves a byte prefix of the log. Recovery (Load) applies the
// complete records in order and stops at the first short or CRC-failing
// frame, then truncates the file there before the handle appends, so a
// new record never follows garbage. A record that fails to parse inside
// a CRC-valid frame is corruption and an error, not a torn tail. A
// failed Write or Sync is sticky: the page cache's state is unknown, so
// every later stage and Commit returns that error.
//
// The write-tmp / fsync / rename / fsync-dir sequence (replace) remains
// for whole files: the client's Local Persist image (WriteFile) and
// checkpoints of the log, which rewrite it as one put record per live
// object once it has outgrown the last one. One live FileStore per
// directory — each trusts its own idea of the log's tail — but a handle
// holds no open file between commits, so there is nothing to close. The
// per-object-file layout of earlier versions is not read.
type FileStore struct {
	dir string

	// crashBeforeCommit is the failpoint, honoured at both commit points:
	// replace stops before its rename, and Commit tears the last record
	// of its group; both return ErrSimulatedCrash, Commit from then on.
	crashBeforeCommit bool

	// largeRecord and ckptFloor hold the constants of the same names;
	// they are fields so a test can reach both paths with small inputs.
	largeRecord int
	ckptFloor   int64

	// commitMu guards the file and is held across every operation on it,
	// so committers queue behind the leader's Sync. Taken before mu. No
	// file stays open between commits: a handle nobody closes holds no
	// descriptor, and a data dir removed under it frees its blocks.
	commitMu       sync.Mutex
	opened         bool         // open has replayed the log and cut its torn tail off
	truncated      bool         // ... and the new length is not synced yet
	spare          []byte       // the staging buffer the last leader emptied
	size, ckptSize atomic.Int64 // the log's length now and after its last checkpoint (0 if reopened since); read without the lock

	// mu guards what is staged and what is published, and is never held
	// across I/O: stage runs inside the caller's lock domain.
	mu      sync.Mutex
	buf     []byte   // staged records, less the large tails
	cuts    []cut    // where those go
	end     int64    // LSN of the last staged record: bytes staged by this handle
	flushed int64    // every record with an LSN <= flushed is durable
	err     error    // sticky
	stats   LogStats // but LogSize, which is size
}

// cut says that tail, still in its stager's slice, follows buf[:at].
type cut struct {
	at   int
	tail []byte
}

// LogStats counts the object log's work. Records / Commits is the
// group-commit factor: how many mutations shared one Sync.
type LogStats struct {
	Records, Commits, Bytes, Checkpoints uint64
	LogSize                              int64
}

const (
	logName = "objects.log"

	// largeRecord: a payload this big is written from its stager's slice
	// instead of being copied through the staging buffer. maxStaging: a
	// staging buffer that grew past this is dropped after its flush, not
	// kept.
	largeRecord = 64 << 10
	maxStaging  = 1 << 20

	// The log is checkpointed when it is larger than ckptMultiple times
	// its size after the last checkpoint plus ckptFloor.
	ckptMultiple = 4
	ckptFloor    = 64 << 20
)

// Record kinds. A frame is
//
//	len u32 | crc32c u32 | kind u8 | pool | name | npairs | (key | value)* | tail
//
// little-endian, with uvarint counts and uvarint-prefixed strings; len
// counts the bytes after the CRC, and the CRC covers len and those bytes
// (so a zero-filled tail is not a valid empty frame). The tail runs to
// the end of the frame: the data of a put, write or append, the key of an
// omap-remove.
const (
	recPut        byte = iota + 1 // data and the whole omap: Put, and every record of a checkpoint
	recWrite                      // replace the data, keep the omap
	recAppend                     // the appended bytes only
	recOmapSet                    // the pairs set
	recOmapRemove                 // the key removed
	recRemove                     // the object is gone
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSimulatedCrash is returned by a write that the crashBeforeCommit
// failpoint stopped.
var ErrSimulatedCrash = errors.New("rados: simulated crash before commit")

// OpenFileStore returns a file store rooted at dir. It creates the
// directory and nothing else: the log is opened by the first Load or
// write, so a handle made only for WriteFile costs no log.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, largeRecord: largeRecord, ckptFloor: ckptFloor}, nil
}

// Dir returns the store's root directory.
func (fs *FileStore) Dir() string { return fs.dir }

// Stats returns the log's counters.
func (fs *FileStore) Stats() LogStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := fs.stats
	st.LogSize = fs.size.Load()
	return st
}

func appendPrefixed[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendFrame appends one record's frame to b up to, not including, its
// tail, which the caller sends after it; the length and CRC cover both.
func appendFrame(b []byte, kind byte, oid ObjectID, kv map[string][]byte, tail []byte) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	b = appendPrefixed(appendPrefixed(b, oid.Pool), oid.Name)
	b = binary.AppendUvarint(b, uint64(len(kv)))
	for k, v := range kv {
		b = appendPrefixed(appendPrefixed(b, k), v)
	}
	n := len(b) - start - 8 + len(tail)
	if uint64(n) > math.MaxUint32 {
		return b[:start], fmt.Errorf("rados: %v: a %d-byte record does not fit a log frame", oid, n)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	crc := crc32.Update(0, castagnoli, b[start:start+4])
	crc = crc32.Update(crc, castagnoli, b[start+8:])
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Update(crc, castagnoli, tail))
	return b, nil
}

// replay applies the complete records of log, in order, to an empty
// object map and returns it with the length of the valid prefix: it
// stops, without error, at the first short or CRC-failing frame. Nothing
// is allocated from a length the log supplies; object bytes are copied
// out of log.
func replay(log []byte) (objs map[ObjectID]*object, valid int, err error) {
	objs = make(map[ObjectID]*object)
	for len(log)-valid >= 8 {
		rest := log[valid:]
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-8) {
			break
		}
		body := rest[8 : 8+int(n)]
		if crc32.Update(crc32.Update(0, castagnoli, rest[:4]), castagnoli, body) != binary.LittleEndian.Uint32(rest[4:]) {
			break
		}
		if err := applyRecord(objs, body); err != nil {
			return nil, valid, fmt.Errorf("rados: %s is corrupt at offset %d: %w", logName, valid, err)
		}
		valid += 8 + int(n)
	}
	return objs, valid, nil
}

// applyRecord decodes the body of one CRC-valid frame and applies it.
func applyRecord(objs map[ObjectID]*object, body []byte) error {
	if len(body) == 0 {
		return errors.New("empty record")
	}
	kind := body[0]
	body = body[1:]
	bad := false
	uvarint := func() uint64 {
		n, w := binary.Uvarint(body)
		if w <= 0 {
			bad, body = true, nil
		}
		body = body[max(w, 0):]
		return n
	}
	field := func() []byte {
		n := uvarint()
		if n > uint64(len(body)) {
			bad, body = true, nil
			return nil
		}
		s := body[:n]
		body = body[n:]
		return s
	}
	oid := ObjectID{Pool: string(field()), Name: string(field())}
	npairs := uvarint()
	var kv map[string][]byte
	for ; npairs > 0 && !bad; npairs-- {
		if kv == nil {
			kv = make(map[string][]byte)
		}
		k := string(field())
		kv[k] = append([]byte(nil), field()...)
	}
	if bad {
		return fmt.Errorf("record of kind %d does not parse", kind)
	}
	if kind == recRemove {
		delete(objs, oid)
		return nil
	}
	o := objs[oid]
	if o == nil {
		o = &object{}
		objs[oid] = o
	}
	switch kind {
	case recPut:
		o.data, o.omap = append(o.data[:0], body...), kv
	case recWrite:
		o.data = append(o.data[:0], body...)
	case recAppend:
		o.data = append(o.data, body...)
	case recOmapSet:
		if o.omap == nil {
			o.omap = make(map[string][]byte, len(kv))
		}
		maps.Copy(o.omap, kv)
	case recOmapRemove:
		delete(o.omap, string(body))
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// open is recovery: it sweeps the tmp file of a checkpoint that died,
// replays the log — creating it, as an empty checkpoint, if there is none
// — and truncates it to its valid prefix, which the next commit syncs
// before it appends anything. It returns the log's objects. The caller
// holds commitMu.
func (fs *FileStore) open() (map[ObjectID]*object, error) {
	path := filepath.Join(fs.dir, logName)
	if err := os.Remove(path + ".tmp"); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	log, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		log, err = nil, fs.rewrite(nil)
	}
	if err != nil {
		return nil, err
	}
	objs, valid, err := replay(log)
	if err == nil && valid < len(log) {
		err = os.Truncate(path, int64(valid))
	}
	if err != nil {
		return nil, err
	}
	fs.opened, fs.truncated = true, valid < len(log)
	fs.size.Store(int64(valid))
	fs.ckptSize.Store(0)
	return objs, nil
}

// rewrite replaces the log with one put record per object of live
// through replace, so a crash leaves the old log or the new image. The
// caller holds commitMu.
func (fs *FileStore) rewrite(live map[ObjectID]*object) error {
	var size int64
	err := fs.replace(logName, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, fs.largeRecord)
		var head []byte
		for oid, o := range live {
			var err error
			if head, err = appendFrame(head[:0], recPut, oid, o.omap, o.data); err != nil {
				return err
			}
			bw.Write(head) // a failed Write fails the Flush below
			bw.Write(o.data)
			size += int64(len(head) + len(o.data))
		}
		return bw.Flush()
	})
	if err == nil {
		fs.truncated = false
		fs.size.Store(size)
		fs.ckptSize.Store(size)
	}
	return err
}

// checkpointDue reports whether the log has outgrown its last checkpoint.
func (fs *FileStore) checkpointDue() bool {
	return fs.size.Load() > ckptMultiple*fs.ckptSize.Load()+fs.ckptFloor
}

// checkpoint compacts the log to the image live. The caller owns live —
// the cluster calls from inside its lock domain — and live holds every
// mutation staged so far, which the image therefore makes durable. A
// failure is sticky: past the rename nobody knows which file the name
// holds.
func (fs *FileStore) checkpoint(live map[ObjectID]*object) error {
	fs.commitMu.Lock()
	defer fs.commitMu.Unlock()
	err := fs.rewrite(live)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err != nil {
		fs.err = err
		return err
	}
	fs.buf, fs.cuts, fs.flushed = fs.buf[:0], nil, fs.end
	fs.stats.Checkpoints++
	return nil
}

// stage appends one record to the log's tail and returns its LSN for
// Commit. Callers that keep a memory image stage inside the lock that
// guards it, right after mutating it. A tail of largeRecord bytes or more
// is not copied: the caller leaves it unchanged until the Commit of the
// LSN returns.
func (fs *FileStore) stage(kind byte, oid ObjectID, kv map[string][]byte, tail []byte) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.err != nil {
		return 0, fs.err
	}
	before := len(fs.buf)
	var err error
	if fs.buf, err = appendFrame(fs.buf, kind, oid, kv, tail); err != nil {
		return 0, err
	}
	n := int64(len(fs.buf) - before + len(tail))
	if len(tail) < fs.largeRecord {
		fs.buf = append(fs.buf, tail...)
	} else {
		fs.cuts = append(fs.cuts, cut{len(fs.buf), tail})
	}
	fs.end += n
	fs.stats.Bytes += uint64(n)
	fs.stats.Records++
	return fs.end, nil
}

// flush appends what is staged to f, the log, and returns the LSN the
// file then reaches. The caller holds commitMu.
func (fs *FileStore) flush(f *os.File) (int64, error) {
	fs.mu.Lock()
	buf, cuts, end := fs.buf, fs.cuts, fs.end
	fs.buf, fs.cuts = fs.spare[:0], nil
	fs.mu.Unlock()
	if fs.spare = buf[:0]; cap(buf) > maxStaging {
		fs.spare = nil
	}
	var err error
	if fs.truncated {
		err = f.Sync() // a new record never follows a tail whose removal could be undone
		fs.truncated = err != nil
	}
	write := func(b []byte) {
		if err == nil && len(b) > 0 {
			_, err = f.Write(b)
			fs.size.Add(int64(len(b)))
		}
	}
	at := 0
	for _, c := range cuts {
		write(buf[at:c.at])
		write(c.tail)
		at = c.at
	}
	write(buf[at:])
	return end, err
}

// Commit returns once the record staged with LSN lsn is durable. The
// first committer to get the commit lock writes and syncs everything
// staged so far; the ones that queued behind it return at once.
func (fs *FileStore) Commit(lsn int64) error {
	fs.commitMu.Lock()
	defer fs.commitMu.Unlock()
	fs.mu.Lock()
	done, err := fs.flushed >= lsn, fs.err
	fs.mu.Unlock()
	if done {
		return nil
	}
	if err != nil {
		return err
	}
	end, err := fs.commit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats.Commits++
	if fs.err = err; err == nil {
		fs.flushed = end
	}
	return err
}

// commit is the leader's work: recover the log if this handle has not,
// append what is staged, and Sync. The caller holds commitMu.
func (fs *FileStore) commit() (end int64, err error) {
	if !fs.opened {
		if _, err = fs.open(); err != nil {
			return 0, err
		}
	}
	f, err := os.OpenFile(filepath.Join(fs.dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	end, err = fs.flush(f)
	if err == nil && fs.crashBeforeCommit {
		err = f.Truncate(fs.size.Load() - 1) // die mid-group: a strict prefix that tears the last record
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && fs.crashBeforeCommit {
		err = ErrSimulatedCrash
	}
	return end, err
}

// Put durably replaces oid's logged image with data and omap.
func (fs *FileStore) Put(oid ObjectID, data []byte, omap map[string][]byte) error {
	lsn, err := fs.stage(recPut, oid, omap, data)
	if err != nil {
		return err
	}
	return fs.Commit(lsn)
}

// Load is recovery (see open): it returns the objects the log holds,
// which is every acknowledged mutation; the handle appends behind them.
func (fs *FileStore) Load() (map[ObjectID]*object, error) {
	fs.commitMu.Lock()
	defer fs.commitMu.Unlock()
	return fs.open()
}

// WriteFile durably replaces the plain file name in the store's directory
// with data — for a file with one writer that is not an object, the
// client's Local Persist image.
func (fs *FileStore) WriteFile(name string, data []byte) error {
	return fs.replace(name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// replace is the durable whole-file write: create or truncate name.tmp
// (a tmp file a killed writer left is overwritten, not accumulated), fill
// it, fsync it, rename it over name — the commit point — and fsync the
// directory. Any failure before the rename removes the tmp file and
// leaves the previous image in place; the body goes straight from fill
// into the file, so nothing is buffered twice.
func (fs *FileStore) replace(name string, fill func(w io.Writer) error) error {
	final := filepath.Join(fs.dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = fill(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && fs.crashBeforeCommit {
		return ErrSimulatedCrash
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
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

// AttachStore makes the cluster durable: the objects the log holds are
// loaded into the in-memory map (recovery), and from then on every
// mutation is logged and acknowledged after its Commit. With a store
// attached the simulated device charges are skipped — the fsync is the
// cost — so attach only on the real backend.
func (c *Cluster) AttachStore(fs *FileStore) error {
	loaded, err := fs.Load()
	if err != nil {
		return err
	}
	maps.Copy(c.objects, loaded)
	c.store = fs
	return nil
}

// Store returns the attached file store, nil when the cluster is purely
// simulated.
func (c *Cluster) Store() *FileStore { return c.store }
