package rados

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cudele/internal/model"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
)

// The crash states of the object log are its byte prefixes, so the tests
// here enumerate them instead of sampling: a seeded history of mutations
// runs through an attached Cluster on the real backend (stage inside the
// domain, Commit outside: the production path) beside an in-memory model,
// and every prefix of the log it leaves is recovered and compared.

// logSnap is the model's state once the log was at bytes long.
type logSnap struct {
	at    int64
	state map[ObjectID]*object
}

func cloneState(m map[ObjectID]*object) map[ObjectID]*object {
	out := make(map[ObjectID]*object, len(m))
	for oid, o := range m {
		c := &object{data: bytes.Clone(o.data)}
		for k, v := range o.omap {
			if c.omap == nil {
				c.omap = map[string][]byte{}
			}
			c.omap[k] = bytes.Clone(v)
		}
		out[oid] = c
	}
	return out
}

// sameObject compares two objects; nil and empty are one value, for data
// and for omaps, as they are to every reader of an object.
func sameObject(a, b *object) bool {
	if !bytes.Equal(a.data, b.data) || len(a.omap) != len(b.omap) {
		return false
	}
	for k, v := range a.omap {
		if w, ok := b.omap[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}

func diffState(got, want map[ObjectID]*object) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d objects, want %d", len(got), len(want))
	}
	for oid, w := range want {
		if g := got[oid]; g == nil || !sameObject(g, w) {
			return fmt.Errorf("object %q/%q is %+v, want %+v", oid.Pool, oid.Name, g, w)
		}
	}
	return nil
}

// recoverLog is the production recovery path over log: a fresh handle on
// a directory holding exactly those bytes, and Load. (The old file is
// removed, not truncated: ext4 flushes a file rewritten through O_TRUNC
// when it is closed, ten times the cost of everything else here.)
func recoverLog(t *testing.T, dir string, log []byte) (*FileStore, map[ObjectID]*object, error) {
	t.Helper()
	path := filepath.Join(dir, logName)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := fs.Load()
	return fs, objs, err
}

// frameEnds returns the offset at which each frame of a well-formed log
// ends, from the length fields alone.
func frameEnds(log []byte) (ends []int64) {
	for at := 0; at+8 <= len(log); {
		at += 8 + int(binary.LittleEndian.Uint32(log[at:]))
		ends = append(ends, int64(at))
	}
	return ends
}

// The history's alphabet: six objects with hostile names — names recovery
// once mistook for its own tmp files, the log's own file name, separators,
// NUL, the empty name — and payloads that are nil, empty, small, or past
// the large-record threshold the history runs with.
const testLargeRecord = 48

var (
	logTestOIDs = []ObjectID{
		{"p", "x.tmp"}, {"journals", "a.tmp7/b"}, {"p", logName}, {"", ""}, {"p,q", "../e\x00%2F"}, {"meta", "d"},
	}
	logTestKeys = []string{"", "k", "rstat", "a\x00b"}
)

func randPayload(rng *rand.Rand) []byte {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		return bytes.Repeat([]byte{byte(rng.Intn(256))}, testLargeRecord+rng.Intn(8))
	}
	b := make([]byte, 1+rng.Intn(9))
	rng.Read(b)
	return b
}

// runLogHistory applies n random mutations to c and to the model, one
// acknowledgement at a time, appending a snapshot per acknowledgement. A
// checkpoint restarts the list: the log then begins with that image.
func runLogHistory(t *testing.T, rng *rand.Rand, c *Cluster, state map[ObjectID]*object, snaps []logSnap, n int) []logSnap {
	t.Helper()
	fs := c.Store()
	eng := c.eng.(*realrt.Engine)
	eng.Spawn("history", func(p runtime.Task) {
		for i := 0; i < n; i++ {
			oid := logTestOIDs[rng.Intn(len(logTestOIDs))]
			m := state[oid]
			create := func() *object {
				if m == nil {
					m = &object{}
					state[oid] = m
				}
				return m
			}
			before := fs.Stats()
			var err error
			var apply func()
			switch op := rng.Intn(10); {
			case op < 3:
				data := randPayload(rng)
				err, apply = c.Write(p, oid, data), func() { create().data = bytes.Clone(data) }
			case op < 5:
				data := randPayload(rng)
				err, apply = c.Append(p, oid, data), func() { create().data = append(create().data, data...) }
			case op < 7:
				var kv map[string][]byte // nil, empty, or one to three pairs
				if k := rng.Intn(5); k > 0 {
					kv = map[string][]byte{}
					for ; k > 1; k-- {
						kv[logTestKeys[rng.Intn(len(logTestKeys))]] = randPayload(rng)
					}
				}
				err, apply = c.OmapSet(p, oid, kv), func() {
					if create().omap == nil {
						m.omap = map[string][]byte{}
					}
					for k, v := range kv {
						m.omap[k] = bytes.Clone(v)
					}
				}
			case op < 9:
				key := logTestKeys[rng.Intn(len(logTestKeys))]
				err, apply = c.OmapRemove(p, oid, key), func() { delete(m.omap, key) }
			default:
				err, apply = c.Remove(p, oid), func() { delete(state, oid) }
			}
			after := fs.Stats()
			if errors.Is(err, ErrNotFound) { // refused before memory changed: nothing logged
				if after.Records != before.Records {
					t.Errorf("mutation %d was refused (%v) and still logged a record", i, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("mutation %d: %v", i, err)
				return
			}
			apply()
			if after.Records != before.Records+1 {
				t.Errorf("mutation %d logged %d records, want 1", i, after.Records-before.Records)
			}
			snap := logSnap{after.LogSize, cloneState(state)}
			if after.Checkpoints != before.Checkpoints {
				snaps = snaps[:0]
			}
			snaps = append(snaps, snap)
		}
	})
	eng.RunAll()
	return snaps
}

// newLogCluster attaches a store on dir to a fresh real-backend cluster,
// with the large-record threshold lowered to the history's.
func newLogCluster(t *testing.T, seed int64, dir string) (*Cluster, *FileStore) {
	t.Helper()
	eng := realrt.New(seed)
	t.Cleanup(func() { eng.Shutdown() })
	c := New(eng, model.Default())
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.largeRecord = testLargeRecord
	if err := c.AttachStore(fs); err != nil {
		t.Fatal(err)
	}
	return c, fs
}

// TestLogEveryPrefixRecovers checks the crash protocol by exhaustion. For
// each seed, once over a plain log and once over a log that checkpointed
// itself on the way, so that it begins with an image:
//
//   - every byte prefix of the log recovers, without error, to exactly the
//     model's state after the records that end at or before it — hence to
//     every mutation acknowledged by then. Inside a checkpoint image that
//     means as many of the image's objects as it has complete records of;
//   - on a sample of those prefixes, on and off record boundaries, a Put
//     through the recovered handle, then a fresh recovery, yields that
//     state plus the object: what a missing truncate, or any record
//     written after garbage, would break;
//   - every single-byte corruption of the last record recovers the state
//     before it, and a corrupted record in the middle recovers the state
//     before it and nothing after: replay stops at the first bad frame.
func TestLogEveryPrefixRecovers(t *testing.T) {
	const seeds, mutations = 8, 150
	for seed := int64(1); seed <= seeds; seed++ {
		for _, ckptFloor := range []int64{ckptFloor, 700} {
			t.Run(fmt.Sprintf("seed%d/floor%d", seed, ckptFloor), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				c, fs := newLogCluster(t, seed, dir)
				fs.ckptFloor = ckptFloor
				state := map[ObjectID]*object{}
				snaps := runLogHistory(t, rng, c, state, []logSnap{{0, cloneState(state)}}, mutations)
				if t.Failed() {
					return
				}
				log, err := os.ReadFile(filepath.Join(dir, logName))
				if err != nil {
					t.Fatal(err)
				}
				last := snaps[len(snaps)-1]
				if int64(len(log)) != last.at {
					t.Fatalf("log is %d bytes, the last acknowledgement was at %d", len(log), last.at)
				}
				if (fs.Stats().Checkpoints > 0) != (ckptFloor == 700) || (snaps[0].at > 0) != (ckptFloor == 700) {
					t.Fatalf("%d checkpoints, first snapshot at %d: the history did not take the path it is here for", fs.Stats().Checkpoints, snaps[0].at)
				}
				ends := frameEnds(log)
				boundary := map[int64]bool{0: true}
				for _, e := range ends {
					boundary[e] = true
				}
				for _, s := range snaps {
					if !boundary[s.at] {
						t.Fatalf("acknowledgement at %d is not a record boundary", s.at)
					}
				}

				scratch := t.TempDir()
				extra := ObjectID{"extra", "after recovery"}
				// expect is the state a log cut at L must recover to.
				expect := func(L int64, got map[ObjectID]*object) map[ObjectID]*object {
					if L >= snaps[0].at {
						k := 0
						for k+1 < len(snaps) && snaps[k+1].at <= L {
							k++
						}
						return snaps[k].state
					}
					// Inside the image: its complete records, each an
					// object of the image, in whatever order it was written.
					complete := 0
					for complete < len(ends) && ends[complete] <= L {
						complete++
					}
					want := map[ObjectID]*object{}
					for oid := range got {
						if o := snaps[0].state[oid]; o != nil && len(want) < complete {
							want[oid] = o
						}
					}
					if len(want) != complete {
						t.Fatalf("prefix %d holds %d complete image records, recovered %d of the image's objects", L, complete, len(want))
					}
					return want
				}
				check := func(what string, cut []byte, L int64, appendAfter bool) {
					t.Helper()
					h, got, err := recoverLog(t, scratch, cut)
					if err != nil {
						t.Fatalf("%s: recovery failed: %v", what, err)
					}
					want := expect(L, got)
					if err := diffState(got, want); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !appendAfter {
						return
					}
					if err := h.Put(extra, []byte("x"), map[string][]byte{"k": nil}); err != nil {
						t.Fatalf("%s: Put after recovery: %v", what, err)
					}
					onDisk, err := os.ReadFile(filepath.Join(scratch, logName))
					if err != nil {
						t.Fatal(err)
					}
					_, got, err = recoverLog(t, scratch, onDisk)
					if err != nil {
						t.Fatalf("%s: second recovery failed: %v", what, err)
					}
					want = cloneState(want)
					want[extra] = &object{data: []byte("x"), omap: map[string][]byte{"k": nil}}
					if err := diffState(got, want); err != nil {
						t.Fatalf("%s: after one more Put: %v", what, err)
					}
				}
				for L := int64(0); L <= int64(len(log)); L++ {
					near := boundary[L-1] || boundary[L] || boundary[L+1]
					check(fmt.Sprintf("prefix %d of %d", L, len(log)), log[:L], L, L%97 == 0 || near && L%11 == 0)
				}

				// Corruption: the last record byte by byte, value by value
				// through replay, and through the files with the byte
				// inverted; then one byte of a few records in the middle.
				lastStart := ends[len(ends)-2]
				bad := bytes.Clone(log)
				for at := lastStart; at < int64(len(log)); at++ {
					for x := 1; x < 256; x++ {
						bad[at] = log[at] ^ byte(x)
						got, valid, err := replay(bad)
						if err != nil || int64(valid) != lastStart {
							t.Fatalf("byte %d ^ %#x: replay kept %d bytes, %v; want %d", at, x, valid, err, lastStart)
						}
						if err := diffState(got, expect(lastStart, got)); err != nil {
							t.Fatalf("byte %d ^ %#x: %v", at, x, err)
						}
					}
					check(fmt.Sprintf("last record, byte %d inverted", at), bad, lastStart, at%5 == 0)
					bad[at] = log[at]
				}
				for i := 0; i < 6; i++ {
					r := rng.Intn(len(ends) - 1)
					at := ends[r] + rng.Int63n(ends[r+1]-ends[r])
					bad[at] ^= 1 << rng.Intn(8)
					check(fmt.Sprintf("record %d, byte %d flipped", r+1, at), bad, ends[r], true)
					bad[at] = log[at]
				}
			})
		}
	}
}

// TestLogCheckpointCrashes drives a checkpoint through the failpoint at
// its commit point. Before the rename the old log is intact and the tmp
// file is swept; after it the image equals memory, and the commit that
// follows it can die without hurting the image.
func TestLogCheckpointCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dir := t.TempDir()
	c, fs := newLogCluster(t, 20, dir)
	state := map[ObjectID]*object{}
	snaps := runLogHistory(t, rng, c, state, []logSnap{{0, cloneState(state)}}, 60)
	acked := cloneState(state)
	reopen := func(want map[ObjectID]*object, what string) (*Cluster, *FileStore) {
		t.Helper()
		c, fs := newLogCluster(t, 21, dir)
		if err := diffState(c.objects, want); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
			t.Fatalf("%s: %v survived recovery", what, tmps)
		}
		return c, fs
	}
	oid := ObjectID{"meta", "d"}
	write := func(c *Cluster, data string) (err error) {
		c.eng.(*realrt.Engine).Spawn("one", func(p runtime.Task) { err = c.Write(p, oid, []byte(data)) })
		c.eng.(*realrt.Engine).RunAll()
		return err
	}

	// Crash before the rename. The mutation that found the checkpoint due
	// is refused and never reaches the old log.
	fs.ckptFloor, fs.crashBeforeCommit = 0, true
	if err := write(c, "refused"); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("write during a crashing checkpoint returned %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName+".tmp")); err != nil {
		t.Fatalf("no tmp file left by the crash: %v", err)
	}
	if info, err := os.Stat(filepath.Join(dir, logName)); err != nil || info.Size() != snaps[len(snaps)-1].at {
		t.Fatalf("old log is %v, %v; want the %d acknowledged bytes", info, err, snaps[len(snaps)-1].at)
	}
	c, fs = reopen(acked, "crash before the rename")

	// The checkpoint commits: the image is memory, and so is durable with
	// the write that triggered it.
	fs.ckptFloor = 0
	if err := write(c, "rides on the checkpoint"); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.Checkpoints != 1 {
		t.Fatalf("%d checkpoints, want 1", st.Checkpoints)
	}
	if acked[oid] == nil {
		acked[oid] = &object{}
	}
	acked[oid].data = []byte("rides on the checkpoint")
	if err := diffState(c.objects, acked); err != nil {
		t.Fatalf("memory after the checkpoint: %v", err)
	}
	// Crash in the first commit after it: a torn record behind the image.
	fs.ckptFloor, fs.crashBeforeCommit = ckptFloor, true
	if err := write(c, "torn"); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("write with the failpoint set returned %v", err)
	}
	c, _ = reopen(acked, "crash after the rename")
}

// TestLogOrderIsMemoryOrder runs the stage/Commit pair from several tasks
// at once: tasks racing to append to the same objects — deltas, which do
// not commute — and a striped write of large records beside them must
// recover to exactly what memory held, whichever committer led each
// group. (It checks the outcome; a stage moved outside the domain would
// reorder only if the scheduler preempted a task between leaving the
// domain and taking the staging lock, too rare a window for a test to be
// the argument. That argument is the code's shape: see Pipeline.log.)
func TestLogOrderIsMemoryOrder(t *testing.T) {
	dir := t.TempDir()
	c, _ := newLogCluster(t, 30, dir)
	eng := c.eng.(*realrt.Engine)
	const writers, appends = 4, 40
	for w := 0; w < writers; w++ {
		eng.Spawn(fmt.Sprintf("appender%d", w), func(p runtime.Task) {
			for i := 0; i < appends; i++ {
				oid := ObjectID{"shared", fmt.Sprint(i % 2)}
				if err := c.Append(p, oid, []byte(fmt.Sprintf("[%d.%d]", w, i))); err != nil {
					t.Errorf("append: %v", err)
				}
				if err := c.OmapSet(p, oid, map[string][]byte{"last": {byte(w), byte(i)}}); err != nil {
					t.Errorf("omap-set: %v", err)
				}
			}
		})
	}
	eng.Spawn("striper", func(p runtime.Task) {
		s := &Striper{c: c, unit: 3 * testLargeRecord}
		if err := s.Write(p, "journals", "big", bytes.Repeat([]byte("0123456789"), 200)); err != nil {
			t.Errorf("striped write: %v", err)
		}
	})
	eng.RunAll()
	memory := cloneState(c.objects)
	if got := len(memory[ObjectID{"shared", "0"}].data) + len(memory[ObjectID{"shared", "1"}].data); got < writers*appends*len("[0.0]") {
		t.Fatalf("memory holds %d appended bytes: the writers did not run", got)
	}
	recovered, _ := newLogCluster(t, 31, dir)
	if err := diffState(recovered.objects, memory); err != nil {
		t.Fatalf("recovered state is not what memory held: %v", err)
	}
}

// rawFrame frames body as the log does, whatever body holds.
func rawFrame(body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	crc := crc32.Update(crc32.Update(0, castagnoli, b), castagnoli, body)
	return append(binary.LittleEndian.AppendUint32(b, crc), body...)
}

func testFrame(t testing.TB, kind byte, oid ObjectID, kv map[string][]byte, tail []byte) []byte {
	b, err := appendFrame(nil, kind, oid, kv, tail)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, tail...)
}

// FuzzLogReplay holds the log's decode boundary to its contract on any
// bytes at all: replay never panics, returns a state or an error, and the
// valid prefix it reports is a fixed point — replaying exactly that prefix
// gives the same state and keeps all of it. A mutated input almost never
// carries a valid CRC, so each input is also replayed as the body of one
// correctly framed record: that is what reaches the record parser.
func FuzzLogReplay(f *testing.F) {
	oid := ObjectID{"p", "o"}
	kv := map[string][]byte{"k": []byte("v"), "": nil}
	var all []byte
	for _, rec := range [][]byte{
		testFrame(f, recPut, oid, kv, []byte("data")),
		testFrame(f, recWrite, oid, nil, []byte("w")),
		testFrame(f, recAppend, oid, nil, []byte("a")),
		testFrame(f, recOmapSet, oid, kv, nil),
		testFrame(f, recOmapRemove, oid, nil, []byte("k")),
		testFrame(f, recRemove, oid, nil, nil),
	} {
		f.Add(rec)
		all = append(all, rec...)
	}
	f.Add([]byte{})
	f.Add(all)
	f.Add(all[:len(all)-3])                                                          // a torn tail
	f.Add(append(bytes.Clone(all), testFrame(f, 99, oid, nil, nil)...))              // CRC-valid, unknown kind
	f.Add(append(bytes.Clone(all), 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5))           // a length no file has
	f.Add(rawFrame(append([]byte{recOmapSet, 1, 'p', 1, 'o'}, 0xFF, 0xFF, 0xFF, 1))) // more pairs than bytes
	f.Add(rawFrame(nil))
	f.Add(make([]byte, 64))                                  // zero-filled: not sixty-four empty frames
	f.Add(testFrame(f, recPut, oid, kv, []byte("data"))[8:]) // bodies, for the framed replay
	f.Add(testFrame(f, recOmapRemove, oid, nil, []byte("k"))[8:])
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, log := range [][]byte{in, rawFrame(in)} {
			objs, valid, err := replay(log)
			if valid < 0 || valid > len(log) {
				t.Fatalf("valid prefix %d of a %d-byte log", valid, len(log))
			}
			if (err == nil) != (objs != nil) {
				t.Fatalf("replay returned state %v and error %v", objs != nil, err)
			}
			if err != nil {
				continue
			}
			again, validAgain, err := replay(log[:valid])
			if err != nil || validAgain != valid {
				t.Fatalf("replaying the valid prefix kept %d of %d bytes, %v", validAgain, valid, err)
			}
			if err := diffState(again, objs); err != nil {
				t.Fatalf("replaying the valid prefix: %v", err)
			}
		}
	})
}

// TestLogReplayRejectsCorruption pins the two outcomes apart: a frame that
// is short or fails its CRC ends the log quietly, a CRC-valid frame that
// does not parse is an error that names the offset.
func TestLogReplayRejectsCorruption(t *testing.T) {
	oid := ObjectID{"p", "o"}
	good := testFrame(t, recWrite, oid, nil, []byte("w"))
	for name, tail := range map[string][]byte{
		"unknown kind":          testFrame(t, 99, oid, nil, nil),
		"empty body":            rawFrame(nil),
		"more pairs than bytes": rawFrame(append([]byte{recOmapSet, 1, 'p', 1, 'o'}, 0xFF, 0xFF, 0xFF, 1)),
		"name past the frame":   rawFrame([]byte{recWrite, 1, 'p', 9, 'o'}),
	} {
		_, valid, err := replay(append(bytes.Clone(good), tail...))
		if err == nil || valid != len(good) || !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("offset %d", len(good)))) {
			t.Errorf("%s: replay kept %d bytes with error %v; want an error at offset %d", name, valid, err, len(good))
		}
	}
	for name, tail := range map[string][]byte{
		"zero fill":      make([]byte, 32),
		"length of 4 GB": {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1},
		"short header":   {1, 0, 0},
	} {
		objs, valid, err := replay(append(bytes.Clone(good), tail...))
		if err != nil || valid != len(good) || len(objs) != 1 {
			t.Errorf("%s: replay kept %d bytes, %d objects, %v; want the %d good bytes", name, valid, len(objs), err, len(good))
		}
	}
}
