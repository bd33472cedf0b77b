package rados

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cudele/internal/model"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
)

func TestFileStorePutLoadRoundTrip(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	oid := ObjectID{Pool: "meta", Name: "dir/0x1"}
	omap := map[string][]byte{"k": []byte("v")}
	if err := fs.Put(oid, []byte("payload"), omap); err != nil {
		t.Fatal(err)
	}
	loaded, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	so, ok := loaded[oid]
	if !ok {
		t.Fatalf("object %v missing after reload (got %d objects)", oid, len(loaded))
	}
	if string(so.data) != "payload" || string(so.omap["k"]) != "v" {
		t.Fatalf("reloaded object corrupted: %+v", so)
	}
}

func TestFileStoreNameEscaping(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Names are bytes in a record, never file names: separators, commas
	// and escapes must round-trip, and so must the names recovery used to
	// mistake for its own litter (anything containing ".tmp" was deleted
	// by Load) or that collide with the log's own file name.
	oids := []ObjectID{
		{Pool: "a/b", Name: "x,y"},
		{Pool: "p", Name: "weird %2F name"},
		{Pool: "p,q", Name: "../escape"},
		{Pool: "p", Name: "x.tmp"},
		{Pool: "journals", Name: "a.tmp7/b"},
		{Pool: "p", Name: "objects.log"},
		{Pool: "p", Name: "objects.log.tmp"},
		{Pool: "p", Name: ""},
		{Pool: "", Name: ""},
	}
	for i, oid := range oids {
		if err := fs.Put(oid, []byte{byte(i)}, nil); err != nil {
			t.Fatalf("put %v: %v", oid, err)
		}
	}
	loaded, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(oids) {
		t.Fatalf("loaded %d objects, want %d", len(loaded), len(oids))
	}
	if entries, _ := os.ReadDir(fs.Dir()); len(entries) != 1 || entries[0].Name() != logName {
		t.Fatalf("data dir holds %v, want only %s", entries, logName)
	}
	for i, oid := range oids {
		so := loaded[oid]
		if so == nil || len(so.data) != 1 || so.data[0] != byte(i) {
			t.Fatalf("object %v did not round-trip: %+v", oid, so)
		}
	}
}

// TestFileStoreCrashBeforeRename is the torn-write test at the store
// layer, at both commit points. A Put that dies mid-commit leaves a torn
// record at the log's tail, and a checkpoint that dies after writing its
// tmp file but before the rename leaves that file: either way recovery
// must see the previous committed image and sweep the litter — truncate
// the tail, remove the tmp file.
func TestFileStoreCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	oid := ObjectID{Pool: "meta", Name: "obj"}
	if err := fs.Put(oid, []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	committed := fs.Stats().LogSize
	// reopen recovers the directory a crashed handle left and checks
	// that only the old complete image is there and the litter is swept.
	reopen := func() *FileStore {
		t.Helper()
		fs, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := fs.Load()
		if err != nil {
			t.Fatal(err)
		}
		if got := string(loaded[oid].data); got != "v1" {
			t.Fatalf("recovered %q, want the pre-crash image \"v1\"", got)
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != 1 || entries[0].Name() != logName {
			t.Fatalf("data dir holds %v after recovery, want only %s", entries, logName)
		}
		if info, _ := entries[0].Info(); info.Size() != committed {
			t.Fatalf("log is %d bytes after recovery, want the %d committed ones", info.Size(), committed)
		}
		return fs
	}

	fs.crashBeforeCommit = true
	if err := fs.Put(oid, []byte("v2"), nil); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing Put returned %v, want ErrSimulatedCrash", err)
	}
	if err := fs.Put(oid, []byte("v3"), nil); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("Put after the crash returned %v, want the sticky ErrSimulatedCrash", err)
	}
	// The torn record is on disk (the crash happened mid-protocol).
	if info, err := os.Stat(filepath.Join(dir, logName)); err != nil || info.Size() <= committed {
		t.Fatalf("no torn tail left by the simulated crash: %v, %v", info, err)
	}
	fs = reopen()

	fs.crashBeforeCommit = true
	if err := fs.checkpoint(map[ObjectID]*object{oid: {data: []byte("v4")}}); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing checkpoint returned %v, want ErrSimulatedCrash", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName+".tmp")); err != nil {
		t.Fatalf("no tmp file left by the simulated crash: %v", err)
	}
	reopen()
}

// TestKillDuringGlobalPersist is the end-to-end acceptance test: a
// client GlobalPersist is killed mid-object-write (its record torn, its
// commit never acknowledged); a fresh cluster recovering from the same
// directory must see no torn object — every recovered image is a
// complete previous version.
func TestKillDuringGlobalPersist(t *testing.T) {
	dir := t.TempDir()

	// First run: persist a complete journal image ("the old version").
	eng := realrt.New(1)
	c := New(eng, model.Default())
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachStore(fs); err != nil {
		t.Fatal(err)
	}
	oid := ObjectID{Pool: "journals", Name: "client.0"}
	eng.Spawn("writer", func(p runtime.Task) {
		if err := c.Write(p, oid, []byte("complete-v1")); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	eng.RunAll()
	eng.Shutdown()

	// Second run over the same directory: the overwrite is killed with
	// its record partly written, the moment a real SIGKILL would be most
	// damaging.
	eng2 := realrt.New(2)
	c2 := New(eng2, model.Default())
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.AttachStore(fs2); err != nil {
		t.Fatal(err)
	}
	fs2.crashBeforeCommit = true
	eng2.Spawn("doomed", func(p runtime.Task) {
		if err := c2.Write(p, oid, []byte("torn-v2")); !errors.Is(err, ErrSimulatedCrash) {
			t.Errorf("doomed write returned %v, want ErrSimulatedCrash", err)
		}
	})
	eng2.RunAll()
	eng2.Shutdown()

	// Recovery: a fresh cluster over the same files. The object must be
	// exactly the old complete image — not torn, not half-new.
	eng3 := realrt.New(3)
	c3 := New(eng3, model.Default())
	fs3, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.AttachStore(fs3); err != nil {
		t.Fatal(err)
	}
	eng3.Spawn("reader", func(p runtime.Task) {
		data, err := c3.Read(p, oid)
		if err != nil {
			t.Errorf("read after recovery: %v", err)
			return
		}
		if string(data) != "complete-v1" {
			t.Errorf("recovered %q, want \"complete-v1\"", data)
		}
	})
	eng3.RunAll()
	eng3.Shutdown()
}

// TestFileStoreConcurrentPuts hammers the store from many goroutines;
// with -race it proves stage and Commit guard the log's tail, afterwards
// every object decodes to a complete image, and the writers shared
// Syncs: that is the group commit.
func TestFileStoreConcurrentPuts(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const versions = 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			oid := ObjectID{Pool: "p", Name: fmt.Sprintf("obj%d", w%4)} // contended names
			for v := 0; v < versions; v++ {
				if err := fs.Put(oid, []byte(strings.Repeat("x", 100+v)), nil); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	loaded, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 4 {
		t.Fatalf("loaded %d objects, want 4", len(loaded))
	}
	for oid, so := range loaded {
		if len(so.data) < 100 || len(so.data) > 100+versions {
			t.Fatalf("object %v has torn size %d", oid, len(so.data))
		}
	}
	if st := fs.Stats(); st.Records != writers*versions || st.Commits >= st.Records {
		t.Fatalf("%d records needed %d commits: concurrent writers did not share a Sync", st.Records, st.Commits)
	}
}

// TestFileStoreRemove checks deletion is durable — a removed object
// stays removed after a reload — and tolerant of missing objects.
func TestFileStoreRemove(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	remove := func(oid ObjectID) error {
		lsn, err := fs.stage(recRemove, oid, nil, nil)
		if err != nil {
			return err
		}
		return fs.Commit(lsn)
	}
	oid, kept := ObjectID{Pool: "p", Name: "gone"}, ObjectID{Pool: "p", Name: "kept"}
	for _, o := range []ObjectID{oid, kept} {
		if err := fs.Put(o, []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := remove(oid); err != nil {
		t.Fatal(err)
	}
	if err := remove(oid); err != nil { // second remove: no-op
		t.Fatalf("removing a missing object: %v", err)
	}
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[kept] == nil {
		t.Fatalf("reload holds %d objects (removed one present: %v), want only %v", len(loaded), loaded[oid] != nil, kept)
	}
}

// TestReplaceProtocolFailures drives the durable whole-file write
// through its three ways of not committing, for both files it is used
// on — the object log, which a checkpoint replaces, and the client's
// Local Persist image. A fill that fails and a rename that fails leave
// the committed image as it was and no tmp file; the crash failpoint
// leaves the old image and the fsynced tmp file, which the next write
// reuses.
func TestReplaceProtocolFailures(t *testing.T) {
	text := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, shape := range []struct{ name, img string }{
		{"object", logName},
		{"local-persist", "journal"}, // WriteFile, with a fill that can fail
	} {
		t.Run(shape.name, func(t *testing.T) {
			write := func(fs *FileStore, fill func(io.Writer) error) error { return fs.replace(shape.img, fill) }
			fs, err := OpenFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			check := func(when, wantImage string, wantTmp int) {
				t.Helper()
				got, err := os.ReadFile(filepath.Join(fs.Dir(), shape.img))
				if err != nil || string(got) != wantImage {
					t.Errorf("%s: committed image = %q, %v; want %q", when, got, err, wantImage)
				}
				tmps, _ := filepath.Glob(filepath.Join(fs.Dir(), "*.tmp*"))
				if len(tmps) != wantTmp {
					t.Errorf("%s: %d tmp files left (%v), want %d", when, len(tmps), tmps, wantTmp)
				}
			}
			if err := write(fs, text("v1")); err != nil {
				t.Fatal(err)
			}
			check("first write", "v1", 0)

			boom := errors.New("fill failed")
			if err := write(fs, func(w io.Writer) error {
				io.WriteString(w, "half of v")
				return boom
			}); !errors.Is(err, boom) {
				t.Errorf("failing fill returned %v", err)
			}
			check("failing fill", "v1", 0)

			fs.crashBeforeCommit = true
			if err := write(fs, text("v2")); !errors.Is(err, ErrSimulatedCrash) {
				t.Errorf("failpoint returned %v", err)
			}
			check("crash before rename", "v1", 1)
			fs.crashBeforeCommit = false
			if err := write(fs, text("v3")); err != nil {
				t.Errorf("write after a crash left a tmp file: %v", err)
			}
			check("write after crash", "v3", 0) // the fixed tmp name was reused

			// A rename that cannot succeed: the target name is a non-empty
			// directory. The image written before must survive beside it.
			if err := os.MkdirAll(filepath.Join(fs.Dir(), "blocked", "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fs.replace("blocked", text("never")); err == nil {
				t.Error("rename over a non-empty directory succeeded")
			}
			check("failing rename", "v3", 0)
		})
	}

	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("journal", []byte("image")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(fs.Dir(), "journal")); err != nil || string(got) != "image" {
		t.Errorf("WriteFile round trip = %q, %v", got, err)
	}
}
