package mds_test

import (
	"fmt"
	"testing"

	"cudele"
	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/rados"
)

// TestRestartAfterImportKeepsAckedInodes: rank 1 imports a subtree whose
// source journal still held its creates (a non-empty tail), serves more
// creates, flushes, crashes and restarts. Every path — shipped in the
// tail or created on rank 1 — must resolve to the inode its create
// acked: replaying the tail over the imported image must not re-allocate.
func TestRestartAfterImportKeepsAckedInodes(t *testing.T) {
	cl := cudele.NewCluster(cudele.WithMDSRanks(2))
	for r := 0; r < 2; r++ {
		cl.Metadata().Rank(r).SetStream(true)
	}
	c := cl.NewClient("client.0")
	acked := map[string]cudele.Ino{}
	cl.Run(func(p cudele.Proc) {
		job, err := c.MkdirAll(p, "/job", 0755)
		if err != nil {
			t.Fatalf("mkdirall: %v", err)
		}
		create := func(path string, dir bool, parent cudele.Ino, name string) cudele.Ino {
			make := c.Create
			if dir {
				make = c.Mkdir
			}
			ino, err := make(p, parent, name, 0755)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			acked[path] = ino
			return ino
		}
		create("/job/a", false, job, "a")
		if err := cl.Migrate(p, "/job", 1); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		create("/job/b", false, job, "b")
		d := create("/job/d", true, job, "d")
		create("/job/d/c", false, d, "c")
		owner := cl.Metadata().Rank(1)
		owner.FlushJournal(p)
		owner.Crash(p)
		if err := owner.Restart(p); err != nil {
			t.Fatalf("restart: %v", err)
		}
	})
	store := cl.Metadata().Rank(1).Store()
	for path, want := range acked {
		in, err := store.Resolve(path)
		if err != nil {
			t.Errorf("%s lost across restart: %v", path, err)
		} else if in.Ino != want {
			t.Errorf("%s has inode %d after restart, acked %d", path, in.Ino, want)
		}
	}
}

// TestExportedTailKeepsExporterSeqs: the journal tail an export ships is
// a copy. Rank 1 journals an imported /other and three creates first, so
// when /job's tail (its mkdir and three creates) arrives, rank 1 stamps it
// with sequence numbers 4-7. Rank 0's open segment still holds those four
// records when it flushes afterwards, and its object must carry rank 0's
// own numbers: every record's Seq is its index.
func TestExportedTailKeepsExporterSeqs(t *testing.T) {
	for _, backend := range []cudele.Backend{cudele.BackendSim, cudele.BackendReal} {
		t.Run(fmt.Sprint(backend), func(t *testing.T) {
			cl := cudele.NewCluster(cudele.WithMDSRanks(2), cudele.WithBackend(backend))
			defer cl.Close()
			for r := 0; r < 2; r++ {
				cl.Metadata().Rank(r).SetStream(true)
			}
			c := cl.NewClient("client.0")
			var evs []*journal.Event
			cl.Run(func(p cudele.Proc) {
				for _, dir := range []string{"/other", "/job"} {
					ino, err := c.MkdirAll(p, dir, 0755)
					if err != nil {
						t.Fatalf("mkdir %s: %v", dir, err)
					}
					if dir == "/other" {
						if err := cl.Migrate(p, dir, 1); err != nil {
							t.Fatalf("migrate %s: %v", dir, err)
						}
					}
					for i := range 3 {
						if _, err := c.Create(p, ino, fmt.Sprintf("f%d", i), 0644); err != nil {
							t.Fatalf("create in %s: %v", dir, err)
						}
					}
				}
				if err := cl.Migrate(p, "/job", 1); err != nil {
					t.Fatalf("migrate /job: %v", err)
				}
				cl.Metadata().Rank(0).FlushJournal(p)
				data, err := rados.NewStriper(cl.Objects()).Read(p, mds.JournalPool, "mds0_journal.00000000")
				if err != nil {
					t.Fatalf("read rank 0 segment: %v", err)
				}
				if evs, err = journal.Decode(data); err != nil {
					t.Fatalf("decode rank 0 segment: %v", err)
				}
			})
			if len(evs) != 5 {
				t.Fatalf("rank 0 segment holds %d records, want 5 (two mkdirs, three creates)", len(evs))
			}
			for i, ev := range evs {
				if ev.Seq != uint64(i) {
					t.Errorf("rank 0 segment record %d has seq %d", i, ev.Seq)
				}
			}
		})
	}
}
