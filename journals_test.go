package cudele

import (
	"errors"
	"fmt"
	"testing"

	"cudele/internal/namespace"
)

// streamingJob decouples /job as rpcs + stream for c on rank 0 and makes
// n flushed, journaled RPC creates in it, after saving the empty tree.
func streamingJob(t *testing.T, p Proc, cl *Cluster, c *Client, n int) {
	t.Helper()
	dir, err := c.MkdirAll(p, "/job", 0755)
	if err == nil {
		err = cl.MDS().SaveStore(p)
	}
	if err == nil {
		_, err = cl.Decouple(p, c, "/job", "consistency: rpcs\ndurability: stream\n")
	}
	for i := 0; err == nil && i < n; i++ {
		_, err = c.Create(p, dir, fmt.Sprintf("f%d", i), 0644)
	}
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	cl.MDS().FlushJournal(p)
	if got := cl.MDS().Metrics().Journaled; got != uint64(n) {
		t.Fatalf("rank 0 journaled %d of %d creates", got, n)
	}
}

// TestMovedStreamingSubtreeKeepsFlushedCreates: a placement and a
// migration move a registered rpcs + stream subtree to rank 1 after ten
// flushed, journaled creates. Its journal stays on rank 0, so the
// handoff must save the subtree: all ten files survive the new owner's
// crash.
func TestMovedStreamingSubtreeKeepsFlushedCreates(t *testing.T) {
	const n = 10
	for _, move := range []string{"place", "migrate"} {
		t.Run(move, func(t *testing.T) {
			cl := NewCluster(WithSeed(1), WithMDSRanks(2))
			c := cl.NewClient("c0")
			cl.Run(func(p Proc) {
				streamingJob(t, p, cl, c, n)
				var err error
				if move == "place" {
					err = cl.Monitor().Place(p, "/job", 1)
				} else {
					err = cl.Migrate(p, "/job", 1)
				}
				if err != nil || cl.Metadata().Table().RankFor("/job") != 1 {
					t.Fatalf("%s onto rank 1: %v", move, err)
				}
				r1 := cl.Metadata().Rank(1)
				r1.Crash(p)
				if err := cl.Monitor().Restart(p, 1); err != nil {
					t.Fatalf("restart rank 1: %v", err)
				}
				survived := 0
				for i := 0; i < n; i++ {
					if _, err := r1.Store().Resolve(fmt.Sprintf("/job/f%d", i)); err == nil {
						survived++
					}
				}
				if survived != n {
					t.Errorf("%d of %d flushed, journaled creates survive the new owner's crash", survived, n)
				}
			})
		})
	}
}

// TestHandoffBackKeepsOwnersSavedEntry: /a/job moves to rank 1; rank 0,
// which still owns /a, creates /a/late there and saves; /a/job moves
// back. Rank 1's save on the way back must write only what it owns, not
// its stale copy of /a over rank 0's object, so /a/late survives rank
// 0's restart.
func TestHandoffBackKeepsOwnersSavedEntry(t *testing.T) {
	cl := NewCluster(WithSeed(1), WithMDSRanks(2))
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		dir, err := c.MkdirAll(p, "/a/job", 0755)
		if err == nil {
			_, err = c.Create(p, dir, "f", 0644)
		}
		if err == nil {
			err = cl.Migrate(p, "/a/job", 1)
		}
		var a Ino
		if err == nil {
			a, err = c.Resolve(p, "/a")
		}
		if err == nil {
			_, err = c.Create(p, a, "late", 0644)
		}
		if err == nil {
			err = cl.MDS().SaveStore(p)
		}
		if err == nil {
			err = cl.Migrate(p, "/a/job", 0)
		}
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		cl.MDS().Crash(p)
		if err := cl.Monitor().Restart(p, 0); err != nil {
			t.Fatalf("restart rank 0: %v", err)
		}
		for _, path := range []string{"/a/late", "/a/job/f"} {
			if _, err := cl.MDS().Store().Resolve(path); err != nil {
				t.Errorf("rank 0 after its restart: %v", err)
			}
		}
	})
}

// TestSetAttrJournaledInStreamingSubtree: a setattr names its inode, not
// a parent, and it is journaled by the subtree that governs that inode:
// in an rpcs + stream subtree it raises Journaled by one, and its mode
// survives a rank crash.
func TestSetAttrJournaledInStreamingSubtree(t *testing.T) {
	cl := NewCluster()
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		dir, err := c.MkdirAll(p, "/job", 0755)
		if err == nil {
			err = cl.MDS().SaveStore(p)
		}
		if err == nil {
			_, err = cl.Decouple(p, c, "/job", "consistency: rpcs\ndurability: stream\n")
		}
		var f Ino
		if err == nil {
			f, err = c.Create(p, dir, "f", 0644)
		}
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		before := cl.MDS().Metrics().Journaled
		if err := c.SetAttr(p, f, 0600, 0, 0, 0, 0); err != nil {
			t.Fatalf("setattr: %v", err)
		}
		if got := cl.MDS().Metrics().Journaled - before; got != 1 {
			t.Errorf("setattr raised Journaled by %d, want 1", got)
		}
		cl.MDS().FlushJournal(p)
		cl.MDS().Crash(p)
		if err := cl.Monitor().Restart(p, 0); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if in, err := cl.MDS().Store().Resolve("/job/f"); err != nil || in.Mode != 0600 {
			t.Errorf("after the crash /job/f is %+v, %v; want mode 0600", in, err)
		}
	})
}

// TestInterfereBlockRefusesSetAttr: another client's setattr of a file
// in a subtree decoupled with interfere: block is refused with EBUSY,
// like its creates, and the file keeps its mode.
func TestInterfereBlockRefusesSetAttr(t *testing.T) {
	cl := NewCluster()
	owner, other := cl.NewClient("owner"), cl.NewClient("other")
	cl.Run(func(p Proc) {
		dir, err := owner.MkdirAll(p, "/job", 0755)
		var f Ino
		if err == nil {
			f, err = owner.Create(p, dir, "f", 0644)
		}
		if err == nil {
			_, err = cl.Decouple(p, owner, "/job", "consistency: weak\ndurability: local\ninterfere: block\n")
		}
		var g Ino
		if err == nil {
			g, err = other.Resolve(p, "/job/f")
		}
		if err != nil || g != f {
			t.Fatalf("setup: resolved inode %d of %d: %v", g, f, err)
		}
		if err := other.SetAttr(p, g, 0600, 0, 0, 0, 0); !errors.Is(err, namespace.ErrBusy) {
			t.Errorf("another client's setattr in a blocked subtree: %v, want EBUSY", err)
		}
		if in, err := cl.MDS().Store().Resolve("/job/f"); err != nil || in.Mode != 0644 {
			t.Errorf("/job/f is %+v, %v; want mode 0644", in, err)
		}
	})
}

// TestPlaceOffUnsavedRankRestarts: /a/job is placed on rank 1 off a rank
// 0 that never saved, and rank 1 saves a file made there. The pool then
// holds rank 1's objects for /a/job; it must hold their ancestors too,
// written only because no owner had, so that every rank restarts from
// it and rank 1 keeps the file.
func TestPlaceOffUnsavedRankRestarts(t *testing.T) {
	cl := NewCluster(WithSeed(1), WithMDSRanks(2))
	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		dir, err := c.MkdirAll(p, "/a/job", 0755)
		if err == nil {
			err = cl.Monitor().Place(p, "/a/job", 1)
		}
		if err == nil {
			_, err = c.Create(p, dir, "f", 0644)
		}
		if err == nil {
			err = cl.Metadata().Rank(1).SaveStore(p)
		}
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		for r, path := range []string{"/a", "/a/job/f"} {
			rank := cl.Metadata().Rank(r)
			rank.Crash(p)
			if err := cl.Monitor().Restart(p, r); err != nil {
				t.Fatalf("restart rank %d: %v", r, err)
			}
			if _, err := rank.Store().Resolve(path); err != nil {
				t.Errorf("rank %d after its restart: %v", r, err)
			}
		}
	})
}
