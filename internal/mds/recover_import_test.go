package mds_test

import (
	"testing"

	"cudele"
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
