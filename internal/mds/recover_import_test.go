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
// source journal still held its creates, serves more creates, flushes,
// crashes and restarts. Every path must resolve to the inode its create
// acked. The migration ships no journal: /job/a comes back from the
// image the export saved, the rest from rank 1's own journal.
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
		if err := owner.Restart(p, nil); err != nil {
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

// TestExporterSegmentKeepsOwnSeqs: migrations leave the exporter's
// journal its own. Rank 1 imports /other and journals three creates in
// it; then /job, whose mkdir and three creates rank 0 journaled, moves
// to rank 1 too. Rank 0's open segment still holds its five records when
// it flushes afterwards, and its object must carry exactly those, with
// rank 0's own numbers: every record's Seq is its index.
func TestExporterSegmentKeepsOwnSeqs(t *testing.T) {
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
