package mds

import (
	"errors"
	"slices"
	"testing"
	"time"

	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

// freezeBehindHog builds a server with an exportable /sub and occupies
// its CPU for 10 ms, so a freeze issued meanwhile parks in its first
// yield — the window in which the subtree is not yet marked frozen.
func freezeBehindHog(t *testing.T) (runtime.Runtime, *Server) {
	t.Helper()
	eng, s := newTestServer()
	s.OpenSession("c0")
	if _, err := s.Store().Mkdir(namespace.RootIno, "sub", namespace.CreateAttrs{Mode: 0755}); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("hog", func(p runtime.Task) { s.cpu.Use(p, 10*time.Millisecond) })
	return eng, s
}

func freeze(p runtime.Task, s *Server) *ExportFreezeReply {
	return s.Post(p, &ExportFreezeMsg{Path: "/sub"}).(*ExportFreezeReply)
}

// TestFreezeRefusesRacingMerge: a merge admitted while the freeze handler
// is parked must make the freeze answer ErrBusy and leave the subtree
// thawed. Marking it frozen instead lets the merge apply after the export
// image is taken, and the commit prunes entries the client holds an ack
// for.
func TestFreezeRefusesRacingMerge(t *testing.T) {
	merges := map[string]func(p runtime.Task, s *Server){
		// The open reserves its slot, crosses the wire, and queues for the
		// CPU inside admit: counted in merge.admitting, not yet in
		// mergeQueue.
		"streamed open inside admit": func(p runtime.Task, s *Server) {
			open := s.Post(p, &MergeOpenMsg{Client: "c1", Route: "/sub", TotalEvents: 4}).(*StreamOpenReply)
			if open.Err != nil {
				t.Errorf("merge open: %v", open.Err)
				return
			}
			s.Post(p, &MergeAbortMsg{ID: open.ID})
		},
		"one-shot in flight": func(p runtime.Task, s *Server) {
			if _, err := s.VolatileApply(p, streamEvents("m", 1<<40, 4), 4*2500); err != nil {
				t.Errorf("merge: %v", err)
			}
		},
	}
	for name, merge := range merges {
		t.Run(name, func(t *testing.T) {
			eng, s := freezeBehindHog(t)
			var first, second *ExportFreezeReply
			var frozenAfterFirst bool
			eng.Spawn("freeze", func(p runtime.Task) {
				p.Sleep(time.Millisecond)
				first = freeze(p, s)
				frozenAfterFirst = s.Frozen("/sub")
				p.Sleep(time.Second) // the merge is long gone
				second = freeze(p, s)
			})
			eng.Spawn("merge", func(p runtime.Task) {
				p.Sleep(2 * time.Millisecond)
				merge(p, s)
			})
			eng.RunAll()
			if !errors.Is(first.Err, namespace.ErrBusy) {
				t.Fatalf("freeze racing a merge: err = %v, want ErrBusy", first.Err)
			}
			if frozenAfterFirst {
				t.Fatal("refused freeze left the subtree frozen")
			}
			if second.Err != nil || !s.Frozen("/sub") {
				t.Fatalf("freeze after the merge drained: err = %v, frozen = %v", second.Err, s.Frozen("/sub"))
			}
		})
	}
}

// TestFreezeExportsDirMadeMeanwhile: an RPC mkdir that executes while the
// freeze handler is parked is part of the export — the directory set is
// walked after the handler's last yield.
func TestFreezeExportsDirMadeMeanwhile(t *testing.T) {
	eng, s := freezeBehindHog(t)
	sub, err := s.Store().Resolve("/sub")
	if err != nil {
		t.Fatal(err)
	}
	var mk *Reply
	var fr *ExportFreezeReply
	eng.Spawn("mkdir", func(p runtime.Task) {
		p.Sleep(time.Millisecond)
		mk = s.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: sub.Ino, Name: "new", Mode: 0755})
	})
	eng.Spawn("freeze", func(p runtime.Task) {
		p.Sleep(5 * time.Millisecond)
		fr = freeze(p, s)
	})
	eng.RunAll()
	if mk.Err != nil || fr.Err != nil {
		t.Fatalf("mkdir err = %v, freeze err = %v", mk.Err, fr.Err)
	}
	if !slices.Contains(s.exports["/sub"].dirs, mk.Ino) {
		t.Fatalf("export session dirs %v miss the new directory %d", s.exports["/sub"].dirs, mk.Ino)
	}
	if fr.Manifest.Inodes != 2 {
		t.Fatalf("manifest counts %d inodes, want /sub and /sub/new", fr.Manifest.Inodes)
	}
}

// TestRestartedRankKeepsAckedInodes: a rank other than 0 journals a
// create, a mkdir and a create inside the new directory, flushes, crashes
// and restarts. Every path must resolve to the inode the rank acked:
// replay reinstalls journaled inodes instead of allocating, and the
// recovered store allocates from the rank's own band.
func TestRestartedRankKeepsAckedInodes(t *testing.T) {
	eng := sim.NewEngine(17)
	s := NewRank(eng, model.Default(), rados.New(eng, model.Default()), 1)
	s.OpenSession("c0")
	s.SetStream(true)
	acked := map[string]namespace.Ino{}
	run(t, eng, func(p runtime.Task) {
		submit := func(path string, op Op, parent namespace.Ino, name string) namespace.Ino {
			r := s.Submit(p, &Request{Op: op, Client: "c0", Parent: parent, Name: name, Mode: 0755})
			if r.Err != nil {
				t.Errorf("%s: %v", path, r.Err)
			}
			acked[path] = r.Ino
			return r.Ino
		}
		submit("/f", OpCreate, namespace.RootIno, "f")
		d := submit("/d", OpMkdir, namespace.RootIno, "d")
		submit("/d/g", OpCreate, d, "g")
		s.FlushJournal(p)
		s.Crash(p)
		if err := s.Restart(p); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		if got := submit("/after", OpCreate, namespace.RootIno, "after"); got < rankInoFloor(1) {
			t.Errorf("restarted rank 1 allocated inode %d from below its band", got)
		}
	})
	for path, want := range acked {
		in, err := s.Store().Resolve(path)
		if err != nil {
			t.Errorf("%s lost across restart: %v", path, err)
		} else if in.Ino != want {
			t.Errorf("%s has inode %d after restart, acked %d", path, in.Ino, want)
		}
	}
}
