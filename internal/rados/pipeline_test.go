package rados

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cudele/internal/model"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

// omapKeys replays the log under dir as it is on disk right now and
// returns how many omap keys oid holds there.
func omapKeys(t *testing.T, dir string, oid ObjectID) int {
	t.Helper()
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Error(err)
		return -1
	}
	objs, _, err := replay(log)
	if err != nil {
		t.Error(err)
		return -1
	}
	if o := objs[oid]; o != nil {
		return len(o.omap)
	}
	return 0
}

// TestPipelineFlushIsOneCommit: K mutations through a pipeline are K
// records and, at Flush, one Sync; before the Flush none of them is in
// the file, though memory already reads them back.
func TestPipelineFlushIsOneCommit(t *testing.T) {
	dir := t.TempDir()
	c, fs := newLogCluster(t, 40, dir)
	oid := ObjectID{"meta", "dir.1"}
	const k = 16
	c.eng.Spawn("applier", func(p runtime.Task) {
		before := fs.Stats()
		pl := c.Pipeline()
		for i := 0; i < k; i++ {
			if err := pl.OmapSet(p, oid, map[string][]byte{fmt.Sprint("k", i): {byte(i)}}); err != nil {
				t.Errorf("omap-set %d: %v", i, err)
			}
		}
		if err := pl.Write(p, oid, []byte("image")); err != nil {
			t.Errorf("write: %v", err)
		}
		if v, err := c.OmapGet(p, oid, "k3"); err != nil || v[0] != 3 {
			t.Errorf("memory before the flush reads k3 = %v, %v", v, err)
		}
		if st := fs.Stats(); st.Records != before.Records+k+1 || st.Commits != before.Commits || st.LogSize != before.LogSize {
			t.Errorf("before the flush: %+v after %+v, want %d more records and the file untouched", st, before, k+1)
		}
		if err := pl.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		if st := fs.Stats(); st.Commits != before.Commits+1 || st.LogSize <= before.LogSize {
			t.Errorf("after the flush: %+v after %+v, want one commit", st, before)
		}
		if err := pl.Flush(p); err != nil || fs.Stats().Commits != before.Commits+1 {
			t.Errorf("a second flush with nothing new: %v, %d commits", err, fs.Stats().Commits-before.Commits)
		}
	})
	c.eng.RunAll()
	if n := omapKeys(t, dir, oid); n != k {
		t.Fatalf("the log holds %d of the %d keys", n, k)
	}
	if st := c.Stats(); st.Writes != k+1 {
		t.Fatalf("rados.writes = %d, want %d: a pipelined mutation is still one object operation", st.Writes, k+1)
	}
}

// TestPipelineCrashLeavesPrefix: a crash inside the Flush's commit is
// reported, and what a reopened store holds is a strict prefix of the
// pipeline's records — the first j keys, never a gap.
func TestPipelineCrashLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	c, fs := newLogCluster(t, 41, dir)
	oid := ObjectID{"meta", "dir.1"}
	const k = 12
	c.eng.Spawn("applier", func(p runtime.Task) {
		pl := c.Pipeline()
		for i := 0; i < k; i++ {
			if err := pl.OmapSet(p, oid, map[string][]byte{fmt.Sprintf("k%02d", i): {byte(i)}}); err != nil {
				t.Errorf("omap-set %d: %v", i, err)
			}
		}
		fs.crashBeforeCommit = true
		if err := pl.Flush(p); !errors.Is(err, ErrSimulatedCrash) {
			t.Errorf("flush over a crashing commit = %v, want ErrSimulatedCrash", err)
		}
	})
	c.eng.RunAll()
	reopened, _ := newLogCluster(t, 42, dir)
	var omap map[string][]byte
	if o := reopened.objects[oid]; o != nil {
		omap = o.omap
	}
	if len(omap) >= k {
		t.Fatalf("recovered all %d records of a commit that crashed", len(omap))
	}
	for i := 0; i < len(omap); i++ {
		if _, ok := omap[fmt.Sprintf("k%02d", i)]; !ok {
			t.Fatalf("recovered %d keys but not k%02d: not a prefix (%v)", len(omap), i, omap)
		}
	}
}

// TestPipelineConcurrentFlush: two tasks pipeline at once, several rounds
// each. A handle's scope is its own: when a task's Flush returns, the
// file holds every record that task has staged, whatever the other is in
// the middle of. Run with -race.
func TestPipelineConcurrentFlush(t *testing.T) {
	dir := t.TempDir()
	c, fs := newLogCluster(t, 43, dir)
	const rounds, k = 6, 10
	for w := 0; w < 2; w++ {
		oid := ObjectID{"meta", fmt.Sprint("dir.", w)}
		c.eng.Spawn(fmt.Sprint("applier", w), func(p runtime.Task) {
			for r := 0; r < rounds; r++ {
				pl := c.Pipeline()
				for i := 0; i < k; i++ {
					if err := pl.OmapSet(p, oid, map[string][]byte{fmt.Sprint(r, ".", i): {1}}); err != nil {
						t.Errorf("omap-set: %v", err)
					}
				}
				if err := pl.Flush(p); err != nil {
					t.Errorf("flush: %v", err)
				}
				if n := omapKeys(t, dir, oid); n < (r+1)*k {
					t.Errorf("%v after flush %d: the file holds %d keys, want %d", oid, r, n, (r+1)*k)
				}
			}
		})
	}
	c.eng.RunAll()
	if st := fs.Stats(); st.Records != 2*rounds*k || st.Commits > 2*rounds {
		t.Fatalf("%d records in %d commits, want %d in at most %d", st.Records, st.Commits, 2*rounds*k, 2*rounds)
	}
}

// TestPipelineOnTheSimulator: without a store a pipelined mutation charges
// exactly what the synchronous one does, and Flush returns without
// touching the task — a nil task would panic if it did.
func TestPipelineOnTheSimulator(t *testing.T) {
	oid := ObjectID{"meta", "dir.1"}
	run := func(pipelined bool) (runtime.Time, Stats) {
		eng := sim.NewEngine(7)
		c := New(eng, model.Default())
		var end runtime.Time
		eng.Spawn("applier", func(p runtime.Task) {
			pl := c.Pipeline()
			for i := 0; i < 20; i++ {
				kv := map[string][]byte{fmt.Sprint(i): make([]byte, 100)}
				var err error
				if pipelined {
					if err = pl.OmapSet(p, oid, kv); err == nil {
						err = pl.Write(p, oid, make([]byte, 4096))
					}
				} else {
					if err = c.OmapSet(p, oid, kv); err == nil {
						err = c.Write(p, oid, make([]byte, 4096))
					}
				}
				if err != nil {
					t.Errorf("mutation %d: %v", i, err)
				}
			}
			if err := pl.Flush(nil); err != nil {
				t.Errorf("flush: %v", err)
			}
			end = p.Now()
		})
		eng.RunAll()
		return end, c.Stats()
	}
	syncEnd, syncStats := run(false)
	pipeEnd, pipeStats := run(true)
	if syncEnd != pipeEnd || syncStats != pipeStats || syncEnd == 0 {
		t.Fatalf("pipelined run ended at %v with %+v, synchronous at %v with %+v", pipeEnd, pipeStats, syncEnd, syncStats)
	}
}
