package client

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
)

// jobWithJournal is the state Nonvolatile Apply starts from in these
// tests: /job holding one RPC-created file, saved to its directory
// objects, then decoupled with n local creates f0..f(n-1) journaled.
func jobWithJournal(t *testing.T, cl *cluster, c *Client, p runtime.Task, n int) bool {
	t.Helper()
	job, err := c.MkdirAll(p, "/job", 0755)
	if err == nil {
		_, err = c.Create(p, job, "old", 0644)
	}
	if err == nil {
		err = cl.srv.SaveStore(p)
	}
	if err != nil {
		t.Errorf("set-up: %v", err)
		return false
	}
	return journalCreates(t, c, p, n)
}

// journalCreates decouples /job and journals n local creates.
func journalCreates(t *testing.T, c *Client, p runtime.Task, n int) bool {
	t.Helper()
	if err := c.Decouple(p, "/job", decouplePolicy(policy.ConsWeak, policy.DurGlobal, 1000)); err != nil {
		t.Errorf("decouple: %v", err)
		return false
	}
	root, _ := c.DecoupledRoot()
	for i := 0; i < n; i++ {
		if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
			t.Errorf("local create: %v", err)
			return false
		}
	}
	return true
}

// TestNonvolatileApplyKeepsWhatItCannotRead: a root or directory object
// that exists but does not decode used to be treated as absent, so the
// replay started from an empty directory and the final write replaced the
// object with an image missing every entry it held ("old"). Only a
// missing object is an empty start: the apply fails, the object keeps its
// bytes and the journal keeps its events.
func TestNonvolatileApplyKeepsWhatItCannotRead(t *testing.T) {
	for _, which := range []string{"/job", "/"} {
		t.Run(which, func(t *testing.T) {
			cl := newCluster()
			c := cl.client("c0")
			cl.run(t, func(p runtime.Task) {
				if !jobWithJournal(t, cl, c, p, 3) {
					return
				}
				in, err := cl.srv.Store().Resolve(which)
				if err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				oid := dirObject(in.Ino)
				data, err := cl.obj.Read(p, oid)
				if err != nil || len(data) < 2 {
					t.Errorf("read %v: %d bytes, %v", oid, len(data), err)
					return
				}
				torn := data[:len(data)/2]
				if err := cl.obj.Write(p, oid, torn); err != nil {
					t.Errorf("truncate %v: %v", oid, err)
					return
				}
				if n, err := c.NonvolatileApply(p); err == nil {
					t.Errorf("apply over a truncated %s object = %d, nil; want an error", which, n)
				}
				if after, err := cl.obj.Read(p, oid); err != nil || !bytes.Equal(after, torn) {
					t.Errorf("the apply rewrote %v: %d bytes (%v), want the %d it could not decode", oid, len(after), err, len(torn))
				}
				if evs, err := c.JournalEvents(); err != nil || len(evs) != 3 {
					t.Errorf("journal holds %d events (%v) after the failed apply, want 3", len(evs), err)
				}
			})
		})
	}
}

// TestNonvolatileApplyKeepsExistingEntries: a subtree root that is a
// child of "/" has an inode in the shadow store as soon as the root object
// is installed — an empty one. Its own object used not to be read then, so
// the final write dropped what the directory held before the decouple.
func TestNonvolatileApplyKeepsExistingEntries(t *testing.T) {
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if !jobWithJournal(t, cl, c, p, 3) {
			return
		}
		if n, err := c.NonvolatileApply(p); err != nil || n != 3 {
			t.Errorf("nonvolatile apply = %d, %v", n, err)
			return
		}
		if err := recoveredFiles(cl, p, 3); err != nil {
			t.Error(err)
		}
	})
}

// durableCluster is a real-backend cluster whose objects live in a
// FileStore under dir.
func durableCluster(t *testing.T, dir string) *cluster {
	t.Helper()
	eng := realrt.New(23)
	t.Cleanup(func() { eng.Shutdown() })
	cfg := model.Default()
	obj := rados.New(eng, cfg)
	fs, err := rados.OpenFileStore(dir)
	if err == nil {
		err = obj.AttachStore(fs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &cluster{eng: eng, obj: obj, srv: mds.New(eng, cfg, obj)}
}

// recoveredFiles restarts the metadata server from the object store and
// reports which of /job's expected entries are missing.
func recoveredFiles(cl *cluster, p runtime.Task, n int) error {
	if err := cl.srv.Recover(p); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	names := []string{"old"}
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	for _, name := range names {
		if _, err := cl.srv.Store().Resolve("/job/" + name); err != nil {
			return fmt.Errorf("/job/%s after recovery: %w", name, err)
		}
	}
	return nil
}

// TestNonvolatileApplyCommitsOnce: on a data dir the whole replay — two
// pushes per event and the final directory objects — waits for the disk
// at its acknowledgement, not per push; the journal is cleared after it;
// and a fresh cluster over the same directory recovers every file. Then
// the crash states: every sampled byte prefix of the log the apply wrote
// is what a crash mid-apply could leave, and over each a restarted server
// and a client replaying the same journal finish the apply.
func TestNonvolatileApplyCommitsOnce(t *testing.T) {
	const n = 25
	dir := t.TempDir()
	cl := durableCluster(t, dir)
	c := cl.client("c0")
	var before, after rados.Stats
	cl.run(t, func(p runtime.Task) {
		if !jobWithJournal(t, cl, c, p, n) {
			return
		}
		before = cl.obj.Stats()
		if got, err := c.NonvolatileApply(p); err != nil || got != n {
			t.Errorf("nonvolatile apply = %d, %v", got, err)
		}
		after = cl.obj.Stats()
		if evs, _ := c.JournalEvents(); len(evs) != 0 {
			t.Errorf("journal holds %d events after a successful apply", len(evs))
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if recs, commits := after.Records-before.Records, after.Commits-before.Commits; recs < 2*n || commits < 1 || commits > 3 {
		t.Fatalf("%d events: %d records in %d commits, want >= %d records in 1 to 3 commits", n, recs, commits, 2*n)
	}
	if writes := after.Writes - before.Writes; writes < 2*n+2 {
		t.Fatalf("%d events: %d object writes, want the %d pushes and 2 directory objects", n, writes, 2*n)
	}

	reopened := durableCluster(t, dir)
	reopened.run(t, func(p runtime.Task) {
		if err := recoveredFiles(reopened, p, n); err != nil {
			t.Errorf("fresh cluster over the data dir: %v", err)
		}
	})

	log, err := os.ReadFile(filepath.Join(dir, "objects.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 8; i++ {
		cut := before.LogSize + (int64(len(log))-before.LogSize)*int64(i)/8
		if i == 8 {
			cut-- // the last record torn, not the whole log
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, "objects.log"), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		crashed := durableCluster(t, crashDir)
		c := crashed.client("c0")
		crashed.run(t, func(p runtime.Task) {
			if err := crashed.srv.Recover(p); err != nil {
				t.Errorf("log cut at %d: recover: %v", cut, err)
				return
			}
			if !journalCreates(t, c, p, n) {
				return
			}
			if got, err := c.NonvolatileApply(p); err != nil || got != n {
				t.Errorf("log cut at %d: re-run of the apply = %d, %v", cut, got, err)
				return
			}
			if err := recoveredFiles(crashed, p, n); err != nil {
				t.Errorf("log cut at %d, apply re-run: %v", cut, err)
			}
		})
	}
}

// TestNonvolatileApplyFailedFlush: the data dir disappears under the
// store, so every push still reaches memory and the staging buffer but
// the Flush cannot commit. The mechanism returns that error and keeps its
// journal — nothing was acknowledged, so nothing may be forgotten.
func TestNonvolatileApplyFailedFlush(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	cl := durableCluster(t, dir)
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if !jobWithJournal(t, cl, c, p, 3) {
			return
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Error(err)
			return
		}
		if n, err := c.NonvolatileApply(p); err == nil {
			t.Errorf("apply with the data dir gone = %d, nil; want the Flush's error", n)
		}
		if evs, err := c.JournalEvents(); err != nil || len(evs) != 3 {
			t.Errorf("journal holds %d events (%v) after the failed Flush, want 3", len(evs), err)
		}
	})
}
