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
	if string(so.Data) != "payload" || string(so.Omap["k"]) != "v" {
		t.Fatalf("reloaded object corrupted: %+v", so)
	}
}

func TestFileStoreNameEscaping(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Names with separators, commas, and escapes must round-trip.
	oids := []ObjectID{
		{Pool: "a/b", Name: "x,y"},
		{Pool: "p", Name: "weird %2F name"},
		{Pool: "p,q", Name: "../escape"},
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
	for i, oid := range oids {
		so := loaded[oid]
		if so == nil || len(so.Data) != 1 || so.Data[0] != byte(i) {
			t.Fatalf("object %v did not round-trip: %+v", oid, so)
		}
	}
}

// TestFileStoreCrashBeforeRename is the torn-write test at the store
// layer: a Put that dies after writing its tmp file but before the
// rename must leave the previous committed image untouched, and the tmp
// litter must be swept on recovery.
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
	fs.CrashAfterTmpWrite = true
	if err := fs.Put(oid, []byte("v2"), nil); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crashing Put returned %v, want ErrSimulatedCrash", err)
	}
	// The tmp file exists (the crash happened mid-protocol)...
	entries, _ := os.ReadDir(dir)
	var tmps int
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			tmps++
		}
	}
	if tmps == 0 {
		t.Fatal("no tmp file left by the simulated crash")
	}
	// ...and recovery sees only the old complete image.
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fs2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(loaded[oid].Data); got != "v1" {
		t.Fatalf("recovered %q, want the pre-crash image \"v1\"", got)
	}
	// The sweep removed the litter.
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("tmp file %s survived recovery", e.Name())
		}
	}
}

// TestKillDuringGlobalPersist is the end-to-end acceptance test: a
// client GlobalPersist is killed mid-object-write (after tmp, before
// rename); a fresh cluster recovering from the same directory must see
// no torn object — every recovered image is a complete previous version.
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

	// Second run over the same directory: the overwrite is killed after
	// the tmp write, the moment a real SIGKILL would be most damaging.
	eng2 := realrt.New(2)
	c2 := New(eng2, model.Default())
	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.AttachStore(fs2); err != nil {
		t.Fatal(err)
	}
	fs2.CrashAfterTmpWrite = true
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
// with -race it proves Put's unique-tmp protocol needs no file-level
// locking, and afterwards every object decodes to a complete image.
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
		if len(so.Data) < 100 || len(so.Data) > 100+versions {
			t.Fatalf("object %v has torn size %d", oid, len(so.Data))
		}
	}
}

// TestFileStoreRemove checks deletion is durable and tolerant of
// missing files.
func TestFileStoreRemove(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	oid := ObjectID{Pool: "p", Name: "gone"}
	if err := fs.Put(oid, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(oid); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(oid); err != nil { // second remove: no-op
		t.Fatalf("removing a missing object: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, fileName(oid))); !os.IsNotExist(err) {
		t.Fatalf("file still present after Remove: %v", err)
	}
}

// TestReplaceProtocolFailures drives the one durable-write protocol
// through its three ways of not committing, in both shapes it is called
// in — an object Put (unique tmp name, O_EXCL) and a plain single-writer
// file (the client's Local Persist image: fixed tmp name, O_TRUNC). A
// fill that fails and a rename that fails leave the committed image as it
// was and no tmp file; the crash failpoint leaves the old image and the
// fsynced tmp file, which the next write of that shape survives.
func TestReplaceProtocolFailures(t *testing.T) {
	text := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, shape := range []struct {
		name  string
		write func(fs *FileStore, fill func(io.Writer) error) error
	}{
		{"object", func(fs *FileStore, fill func(io.Writer) error) error {
			return fs.replace("img", fmt.Sprintf("img.tmp%d", fs.seq.Add(1)), os.O_EXCL, fill)
		}},
		{"local-persist", func(fs *FileStore, fill func(io.Writer) error) error {
			return fs.replace("img", "img.tmp", os.O_TRUNC, fill) // WriteFile, with a fill that can fail
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			fs, err := OpenFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			check := func(when, wantImage string, wantTmp int) {
				t.Helper()
				got, err := os.ReadFile(filepath.Join(fs.Dir(), "img"))
				if err != nil || string(got) != wantImage {
					t.Errorf("%s: committed image = %q, %v; want %q", when, got, err, wantImage)
				}
				tmps, _ := filepath.Glob(filepath.Join(fs.Dir(), "*.tmp*"))
				if len(tmps) != wantTmp {
					t.Errorf("%s: %d tmp files left (%v), want %d", when, len(tmps), tmps, wantTmp)
				}
			}
			if err := shape.write(fs, text("v1")); err != nil {
				t.Fatal(err)
			}
			check("first write", "v1", 0)

			boom := errors.New("fill failed")
			if err := shape.write(fs, func(w io.Writer) error {
				io.WriteString(w, "half of v")
				return boom
			}); !errors.Is(err, boom) {
				t.Errorf("failing fill returned %v", err)
			}
			check("failing fill", "v1", 0)

			fs.CrashAfterTmpWrite = true
			if err := shape.write(fs, text("v2")); !errors.Is(err, ErrSimulatedCrash) {
				t.Errorf("failpoint returned %v", err)
			}
			check("crash before rename", "v1", 1)
			fs.CrashAfterTmpWrite = false
			if err := shape.write(fs, text("v3")); err != nil {
				t.Errorf("write after a crash left a tmp file: %v", err)
			}
			want := 1 // a dead Put's tmp stays until Load sweeps it
			if shape.name == "local-persist" {
				want = 0 // the fixed tmp name was reused
			}
			check("write after crash", "v3", want)

			// A rename that cannot succeed: the target name is a non-empty
			// directory. The image written before must survive beside it.
			if err := os.MkdirAll(filepath.Join(fs.Dir(), "blocked", "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fs.replace("blocked", "blocked.tmp", os.O_TRUNC, text("never")); err == nil {
				t.Error("rename over a non-empty directory succeeded")
			}
			check("failing rename", "v3", want)
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
