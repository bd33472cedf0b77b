package mds

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cudele/internal/journal"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
	"cudele/internal/transport"
)

func newTestServerCfg(cfg model.Config) (runtime.Runtime, *Server) {
	eng := sim.NewEngine(17)
	obj := rados.New(eng, cfg)
	return eng, New(eng, cfg, obj)
}

// streamEvents builds n root-level creates with a distinct name prefix so
// several streams can merge into one namespace without collisions.
func streamEvents(prefix string, base uint64, n int) []*journal.Event {
	evs := make([]*journal.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, &journal.Event{Type: journal.EvCreate, Client: prefix,
			Parent: uint64(namespace.RootIno), Name: fmt.Sprintf("%s%d", prefix, i),
			Ino: base + uint64(i), Mode: 0644})
	}
	return evs
}

// streamDirs builds n encoded root-level directory objects, the import
// stream's items, named like streamEvents names its files.
func streamDirs(t *testing.T, prefix string, base uint64, n int) [][]byte {
	t.Helper()
	scratch := namespace.NewStore()
	objs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		ino := namespace.Ino(base + uint64(i))
		if _, err := scratch.Mkdir(namespace.RootIno, fmt.Sprintf("%s%d", prefix, i),
			namespace.CreateAttrs{Ino: ino, Mode: 0755}); err != nil {
			t.Fatalf("forge dir: %v", err)
		}
		data, err := scratch.EncodeDir(ino)
		if err != nil {
			t.Fatalf("forge dir: %v", err)
		}
		objs = append(objs, data)
	}
	return objs
}

// streamCase drives one of a rank's two stream kinds through the
// scheduler's handlers, so every scheduler behaviour is asserted for
// journal chunks and directory-object chunks alike.
type streamCase struct {
	name  string
	sched func(s *Server) *streamSched
	// tune sets the kind's admission bound and window size.
	tune func(cfg *model.Config, admitMax, window int)
	// chunk builds a chunk of n items named prefix0..prefix(n-1); billed
	// chunks carry their wire bytes, unbilled ones stay off the fabric.
	chunk func(t *testing.T, id uint64, seq int, prefix string, base uint64, n int, last, billed bool) transport.StreamChunk
	// sharesQueue is set when admitted jobs count toward MergeQueue.
	sharesQueue bool
}

func info(id uint64, seq, n int, bytes int64, last, billed bool) transport.StreamInfo {
	if !billed {
		bytes = 0
	}
	return transport.StreamInfo{ID: id, Seq: seq, Items: n, Bytes: bytes, Last: last}
}

var streamCases = []streamCase{
	{
		name:  "merge",
		sched: func(s *Server) *streamSched { return s.merge },
		tune: func(cfg *model.Config, admitMax, window int) {
			cfg.MergeAdmitMax, cfg.MergeWindowChunks = admitMax, window
		},
		chunk: func(t *testing.T, id uint64, seq int, prefix string, base uint64, n int, last, billed bool) transport.StreamChunk {
			return &MergeChunkMsg{StreamInfo: info(id, seq, n, int64(n)*2500, last, billed),
				Events: streamEvents(prefix, base, n)}
		},
		sharesQueue: true,
	},
	{
		name:  "import",
		sched: func(s *Server) *streamSched { return s.imports },
		tune: func(cfg *model.Config, admitMax, window int) {
			cfg.MigrateAdmitMax, cfg.MigrateWindowChunks = admitMax, window
		},
		chunk: func(t *testing.T, id uint64, seq int, prefix string, base uint64, n int, last, billed bool) transport.StreamChunk {
			objs := streamDirs(t, prefix, base, n)
			var bytes int64
			for _, o := range objs {
				bytes += int64(len(o))
			}
			return &ImportChunkMsg{StreamInfo: info(id, seq, n, bytes, last, billed), Objs: objs}
		},
	},
}

// eachStreamKind runs fn once per stream kind on a fresh rank whose
// admission bound and window are set for that kind (0 keeps the default).
func eachStreamKind(t *testing.T, admitMax, window int, fn func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server)) {
	for _, k := range streamCases {
		t.Run(k.name, func(t *testing.T) {
			cfg := model.Default()
			k.tune(&cfg, admitMax, window)
			eng, s := newTestServerCfg(cfg)
			fn(t, k, eng, s)
		})
	}
}

// pushRetry sends a chunk until the window accepts it.
func pushRetry(t *testing.T, p runtime.Task, ss *streamSched, c transport.StreamChunk) {
	t.Helper()
	for {
		r := ss.push(p, c)
		if r.Err != nil {
			t.Fatalf("chunk %d err = %v", c.Stream().Seq, r.Err)
		}
		if !r.Backpressure {
			return
		}
		p.Sleep(runtime.Duration(time.Millisecond))
	}
}

func wantDone(t *testing.T, p runtime.Task, ss *streamSched, id uint64, want int) {
	t.Helper()
	if done, err := ss.wait(p, id); err != nil || done != want {
		t.Fatalf("wait stream %d = %d, %v; want %d", id, done, err, want)
	}
}

func TestStreamAdmissionBackpressure(t *testing.T) {
	eachStreamKind(t, 1, 0, func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server) {
		run(t, eng, func(p runtime.Task) {
			ss := k.sched(s)
			open1 := ss.open(p)
			if open1.Err != nil || open1.Backpressure {
				t.Fatalf("first open = %+v", open1)
			}
			// The admission slot is taken: a second open is turned away for
			// free and must not consume an ID or window.
			open2 := ss.open(p)
			if open2.Err != nil || !open2.Backpressure {
				t.Fatalf("second open = %+v, want backpressure", open2)
			}
			if open2.QueueDepth != 1 {
				t.Errorf("queue depth = %d, want 1", open2.QueueDepth)
			}

			// Drain the first job; the slot frees and the next open is
			// admitted.
			if r := ss.push(p, k.chunk(t, open1.ID, 0, "a", 1<<41, 4, true, true)); r.Err != nil || r.Backpressure {
				t.Fatalf("chunk = %+v", r)
			}
			wantDone(t, p, ss, open1.ID, 4)
			open3 := ss.open(p)
			if open3.Err != nil || open3.Backpressure {
				t.Fatalf("open after drain = %+v", open3)
			}
			if r := ss.push(p, k.chunk(t, open3.ID, 0, "b", 1<<42, 1, true, true)); r.Err != nil {
				t.Fatalf("chunk: %v", r.Err)
			}
			wantDone(t, p, ss, open3.ID, 1)
		})
		if got := *k.sched(s).backpressure; got != 1 {
			t.Errorf("backpressure count = %d, want 1", got)
		}
		if got := *k.sched(s).chunks; got != 2 {
			t.Errorf("chunk count = %d, want 2", got)
		}
		if _, err := s.Store().Resolve("/a3"); err != nil {
			t.Errorf("streamed item missing: %v", err)
		}
	})
}

func TestStreamWindowBackpressure(t *testing.T) {
	eachStreamKind(t, 0, 1, func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server) {
		run(t, eng, func(p runtime.Task) {
			ss := k.sched(s)
			open := ss.open(p)
			if open.Err != nil || open.Window != 1 {
				t.Fatalf("open = %+v, want window 1", open)
			}
			// First chunk is accepted; it sits in the window because the
			// scheduler proc has not run yet at this instant.
			if r := ss.push(p, k.chunk(t, open.ID, 0, "a", 1<<41, 256, false, true)); r.Err != nil || r.Backpressure {
				t.Fatalf("chunk 0 = %+v", r)
			}
			// The window (capacity 1) is full: the next chunk bounces, and
			// the rejection costs no simulated time.
			tail := k.chunk(t, open.ID, 1, "b", 1<<42, 1, true, true)
			before := p.Now()
			if r := ss.push(p, tail); r.Err != nil || !r.Backpressure {
				t.Fatalf("chunk 1 = %+v, want backpressure", r)
			}
			if p.Now() != before {
				t.Errorf("backpressured chunk advanced time by %v", p.Now()-before)
			}
			// Give the scheduler a moment to pop chunk 0, then retry.
			p.Sleep(runtime.Duration(time.Millisecond))
			if r := ss.push(p, tail); r.Err != nil || r.Backpressure {
				t.Fatalf("retry = %+v", r)
			}
			wantDone(t, p, ss, open.ID, 257)
		})
		if got := *k.sched(s).backpressure; got != 1 {
			t.Errorf("backpressure count = %d, want 1", got)
		}
	})
}

func TestStreamRoundRobinFairness(t *testing.T) {
	eachStreamKind(t, 0, 0, func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server) {
		run(t, eng, func(p runtime.Task) {
			ss := k.sched(s)
			openA, openB := ss.open(p), ss.open(p)
			if openA.Err != nil || openB.Err != nil || openB.Backpressure {
				t.Fatalf("opens = %+v, %+v", openA, openB)
			}
			// Interleave two chunks per job; the scheduler services the
			// buffered windows round-robin, one chunk at a time.
			for seq := 0; seq < 2; seq++ {
				base := uint64(seq * 256)
				for _, j := range []struct {
					id     uint64
					prefix string
					base   uint64
				}{{openA.ID, fmt.Sprintf("a%d-", seq), 1<<41 + base}, {openB.ID, fmt.Sprintf("b%d-", seq), 1<<42 + base}} {
					if r := ss.push(p, k.chunk(t, j.id, seq, j.prefix, j.base, 256, seq == 1, true)); r.Err != nil || r.Backpressure {
						t.Fatalf("%s chunk = %+v", j.prefix, r)
					}
				}
			}
			wantDone(t, p, ss, openA.ID, 512)
			wantDone(t, p, ss, openB.ID, 512)
		})
		for _, name := range []string{"/a1-255", "/b1-255"} {
			if _, err := s.Store().Resolve(name); err != nil {
				t.Errorf("%s missing: %v", name, err)
			}
		}
		spread, jobs := k.sched(s).fairness()
		if jobs != 2 {
			t.Fatalf("fairness jobs = %d, want 2", jobs)
		}
		// Round-robin interleaving keeps the two equal-size jobs' buffering
		// within one chunk service of each other (~21 ms at the calibrated
		// 82 us/item), far under the ~84 ms a run-to-completion schedule
		// would charge the second job.
		if limit := runtime.Duration(30 * time.Millisecond); spread > limit {
			t.Errorf("chunk-wait spread = %v, want <= %v", spread, limit)
		}
		if got := k.sched(s).peakJobs; got != 2 {
			t.Errorf("peak jobs = %d, want 2", got)
		}
		if s.MergeQueue() != 0 {
			t.Errorf("merge queue not drained: %d", s.MergeQueue())
		}
	})
}

func TestStreamWindowRaceBackpressure(t *testing.T) {
	// Two senders race chunks into a window of one. Both pass the free
	// pre-check while the window is empty, then yield on the wire; only
	// one buffer slot exists, so exactly one chunk may be accepted — the
	// loser must get a backpressure reply, not a silent drop that the
	// reply reports as acceptance.
	eachStreamKind(t, 0, 1, func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server) {
		run(t, eng, func(p runtime.Task) {
			ss := k.sched(s)
			open := ss.open(p)
			if open.Err != nil || open.Backpressure {
				t.Fatalf("open = %+v", open)
			}
			// Unbilled chunks stay off the shared fabric, so both finish
			// their wire yield at the same instant.
			msgs := [2]transport.StreamChunk{
				k.chunk(t, open.ID, 0, "x", 1<<41, 1, false, false),
				k.chunk(t, open.ID, 1, "y", 1<<42, 1, false, false),
			}
			var replies [2]*StreamChunkReply
			g := eng.NewGroup()
			for i := range msgs {
				i := i
				g.Go(fmt.Sprintf("send%d", i), func(sp runtime.Task) {
					replies[i] = ss.push(sp, msgs[i])
				})
			}
			g.Wait(p)
			bounced := -1
			for i, r := range replies {
				if r.Err != nil {
					t.Fatalf("chunk %d err = %v", i, r.Err)
				}
				if r.Backpressure {
					if bounced != -1 {
						t.Fatalf("both chunks backpressured")
					}
					bounced = i
				}
			}
			if bounced == -1 {
				t.Fatalf("no chunk backpressured; one was silently dropped")
			}
			// The loser retries until the window drains; nothing was lost.
			pushRetry(t, p, ss, msgs[bounced])
			pushRetry(t, p, ss, k.chunk(t, open.ID, 2, "z", 1<<43, 1, true, true))
			wantDone(t, p, ss, open.ID, 3)
		})
	})
}

func TestStreamAbortReleasesAdmission(t *testing.T) {
	// A sender that aborts mid-stream must not park the scheduler or pin
	// its admission slot (and, for merges, its merge-queue share) for the
	// rest of the run.
	eachStreamKind(t, 1, 0, func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server) {
		run(t, eng, func(p runtime.Task) {
			ss := k.sched(s)
			open := ss.open(p)
			if open.Err != nil || open.Backpressure {
				t.Fatalf("open = %+v", open)
			}
			// A buffered chunk that will never be followed by the last one.
			if r := ss.push(p, k.chunk(t, open.ID, 0, "a", 1<<41, 4, false, true)); r.Err != nil || r.Backpressure {
				t.Fatalf("chunk = %+v", r)
			}
			if k.sharesQueue && s.MergeQueue() != 1 {
				t.Errorf("merge queue with one admitted stream = %d, want 1", s.MergeQueue())
			}
			if r := ss.abort(p, open.ID); r.Err != nil {
				t.Fatalf("abort = %v", r.Err)
			}
			p.Sleep(runtime.Duration(10 * time.Millisecond)) // let the scheduler retire the job
			if got := s.MergeQueue(); got != 0 {
				t.Errorf("merge queue after abort = %d, want 0", got)
			}
			// The admission slot is free again and the stream id is gone.
			open2 := ss.open(p)
			if open2.Err != nil || open2.Backpressure {
				t.Fatalf("open after abort = %+v", open2)
			}
			if r := ss.push(p, k.chunk(t, open2.ID, 0, "b", 1<<42, 2, true, true)); r.Err != nil || r.Backpressure {
				t.Fatalf("chunk after abort = %+v", r)
			}
			wantDone(t, p, ss, open2.ID, 2)
			if _, err := ss.wait(p, open.ID); !errors.Is(err, namespace.ErrInval) {
				t.Errorf("wait on aborted stream = %v, want ErrInval", err)
			}
			if r := ss.abort(p, open.ID); !errors.Is(r.Err, namespace.ErrInval) {
				t.Errorf("double abort = %v, want ErrInval", r.Err)
			}
		})
		// The aborted job is not a fairness sample; only the completed one is.
		if _, jobs := k.sched(s).fairness(); jobs != 1 {
			t.Errorf("fairness jobs = %d, want 1", jobs)
		}
	})
}

func TestStreamAbortDuringWireYield(t *testing.T) {
	// A chunk that is on the wire when its stream aborts must be refused
	// with the typed abort error, not buffered into a job that is about
	// to be retired.
	eachStreamKind(t, 0, 0, func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server) {
		run(t, eng, func(p runtime.Task) {
			ss := k.sched(s)
			open := ss.open(p)
			var r *StreamChunkReply
			g := eng.NewGroup()
			g.Go("send", func(sp runtime.Task) {
				r = ss.push(sp, k.chunk(t, open.ID, 0, "a", 1<<41, 64, false, true))
			})
			g.Go("abort", func(sp runtime.Task) { ss.abort(sp, open.ID) })
			g.Wait(p)
			if !errors.Is(r.Err, ErrStreamAborted) {
				t.Errorf("chunk into aborting stream = %+v, want ErrStreamAborted", r)
			}
		})
	})
}

func TestStreamUnknownID(t *testing.T) {
	// Both kinds answer an id they do not hold with the same typed error —
	// and, once the rank has stopped, with ErrShutdown: Crash replaced the
	// scheduler the id belonged to, so "invalid" would blame the sender.
	eachStreamKind(t, 0, 0, func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server) {
		run(t, eng, func(p runtime.Task) {
			ss := k.sched(s)
			if r := ss.push(p, k.chunk(t, 99, 0, "x", 1<<41, 1, true, true)); !errors.Is(r.Err, namespace.ErrInval) {
				t.Errorf("chunk for unknown stream = %v, want ErrInval", r.Err)
			}
			if _, err := ss.wait(p, 99); !errors.Is(err, namespace.ErrInval) {
				t.Errorf("wait for unknown stream = %v, want ErrInval", err)
			}
			if r := ss.abort(p, 99); !errors.Is(r.Err, namespace.ErrInval) {
				t.Errorf("abort of unknown stream = %v, want ErrInval", r.Err)
			}

			open := ss.open(p)
			s.Crash(p)
			ss = k.sched(s) // the replacement scheduler
			if _, err := ss.wait(p, open.ID); !errors.Is(err, ErrShutdown) {
				t.Errorf("wait after crash = %v, want ErrShutdown", err)
			}
			if r := ss.abort(p, open.ID); !errors.Is(r.Err, ErrShutdown) {
				t.Errorf("abort after crash = %v, want ErrShutdown", r.Err)
			}
		})
	})
	// The handlers surface the same errors through their replies.
	eng, s := newTestServerCfg(model.Default())
	mergeWait := func(p runtime.Task) *MergeReply { return (&MergeWaitMsg{ID: 99}).serve(s, p).(*MergeReply) }
	run(t, eng, func(p runtime.Task) {
		if w := mergeWait(p); !errors.Is(w.Err, namespace.ErrInval) {
			t.Errorf("merge wait = %v, want ErrInval", w.Err)
		}
		if c := s.importCommit(p, &ImportCommitMsg{ID: 99}); !errors.Is(c.Err, namespace.ErrInval) {
			t.Errorf("import commit = %v, want ErrInval", c.Err)
		}
		s.Crash(p)
		if w := mergeWait(p); !errors.Is(w.Err, ErrShutdown) {
			t.Errorf("merge wait after crash = %v, want ErrShutdown", w.Err)
		}
		if c := s.importCommit(p, &ImportCommitMsg{ID: 99}); !errors.Is(c.Err, ErrShutdown) {
			t.Errorf("import commit after crash = %v, want ErrShutdown", c.Err)
		}
	})
}

func TestStreamCrashRetiresJobs(t *testing.T) {
	// A rank crash retires every in-flight stream: a sender parked in wait
	// is released with ErrShutdown, buffered chunks are discarded, and the
	// restarted rank starts with every admission slot free.
	eachStreamKind(t, 1, 0, func(t *testing.T, k streamCase, eng runtime.Runtime, s *Server) {
		run(t, eng, func(p runtime.Task) {
			ss := k.sched(s)
			open := ss.open(p)
			if r := ss.push(p, k.chunk(t, open.ID, 0, "a", 1<<41, 8, false, true)); r.Err != nil || r.Backpressure {
				t.Fatalf("chunk = %+v", r)
			}
			var waitErr error
			g := eng.NewGroup()
			g.Go("wait", func(sp runtime.Task) { _, waitErr = ss.wait(sp, open.ID) })
			g.Go("crash", func(sp runtime.Task) {
				sp.Sleep(runtime.Duration(5 * time.Millisecond))
				s.Crash(sp)
			})
			g.Wait(p)
			if !errors.Is(waitErr, ErrShutdown) {
				t.Errorf("wait across crash = %v, want ErrShutdown", waitErr)
			}
			if got := s.MergeQueue(); got != 0 {
				t.Errorf("merge queue after crash = %d, want 0", got)
			}
			if r := k.sched(s).open(p); !errors.Is(r.Err, ErrShutdown) {
				t.Errorf("open on crashed rank = %+v, want ErrShutdown", r)
			}
			if err := s.Restart(p); err != nil {
				t.Fatalf("restart: %v", err)
			}
			ss = k.sched(s)
			open2 := ss.open(p)
			if open2.Err != nil || open2.Backpressure {
				t.Fatalf("open after restart = %+v", open2)
			}
			if r := ss.push(p, k.chunk(t, open2.ID, 0, "b", 1<<42, 2, true, true)); r.Err != nil || r.Backpressure {
				t.Fatalf("chunk after restart = %+v", r)
			}
			wantDone(t, p, ss, open2.ID, 2)
		})
	})
}

// TestOneShotMergeIsNotAOneChunkStream pins why the two arrival models
// stay two (DESIGN.md, "Merge pipeline"): a lone client's journal short
// enough to be one apply run one-shot and one chunk streamed finishes
// exactly one NetLatency later as a window-1 stream. What the difference
// measures is the stream's second wire crossing — the open crosses once,
// the chunk once more, where the one-shot MergeMsg crosses once with the
// journal aboard — with everything else equal: the same transfer on the
// fabric, the same MDSMergeSetup, the same run priced at a merge queue of
// one. So collapsing one-shot into the stream would move every calibrated
// merge time; under contention the two differ further (when a job joins
// mergeQueue, which task holds the CPU per run).
func TestOneShotMergeIsNotAOneChunkStream(t *testing.T) {
	const n = applyRunLen - 56
	cfg := model.Default()
	cfg.MergeWindowChunks = 1
	bytes := int64(n) * int64(cfg.JournalEventBytes)
	merge := func(stream func(p runtime.Task, s *Server) (int, error)) runtime.Duration {
		eng, s := newTestServerCfg(cfg)
		var took runtime.Duration
		run(t, eng, func(p runtime.Task) {
			applied, err := stream(p, s)
			if err != nil || applied != n {
				t.Fatalf("merged %d events, %v; want %d", applied, err, n)
			}
			took = runtime.Duration(p.Now())
		})
		return took
	}
	oneShot := merge(func(p runtime.Task, s *Server) (int, error) {
		return s.VolatileApply(p, streamEvents("f", 1<<41, n), bytes)
	})
	streamed := merge(func(p runtime.Task, s *Server) (int, error) {
		open := s.Post(p, &MergeOpenMsg{Client: "c", TotalEvents: n, TotalBytes: bytes}).(*MergeOpenReply)
		if open.Err != nil || open.Backpressure {
			t.Fatalf("open = %+v", open)
		}
		chunk := s.Post(p, &MergeChunkMsg{
			StreamInfo: transport.StreamInfo{ID: open.ID, Items: n, Bytes: bytes, Last: true},
			Events:     streamEvents("f", 1<<41, n),
		}).(*MergeChunkReply)
		if chunk.Err != nil || chunk.Backpressure {
			t.Fatalf("chunk = %+v", chunk)
		}
		r := s.Post(p, &MergeWaitMsg{ID: open.ID}).(*MergeReply)
		return r.Applied, r.Err
	})
	if got := streamed - oneShot; got != cfg.NetLatency {
		t.Errorf("streamed %v - one-shot %v = %v, want exactly NetLatency %v", streamed, oneShot, got, cfg.NetLatency)
	}
}
