package client

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

// newClusterCfg is newCluster with a caller-supplied cost model, for
// exercising the opt-in chunked merge pipeline (MergeChunkEvents > 0).
func newClusterCfg(cfg model.Config) *cluster {
	eng := sim.NewEngine(23)
	obj := rados.New(eng, cfg)
	srv := mds.New(eng, cfg, obj)
	return &cluster{eng: eng, obj: obj, srv: srv}
}

func (cl *cluster) clientCfg(name string, cfg model.Config) *Client {
	c := New(cl.eng, cfg, name, cl.srv, cl.obj)
	c.Mount(nil)
	return c
}

// chunkedConfig is the default model with the streamed merge pipeline
// switched on at the given chunk size.
func chunkedConfig(chunk int) model.Config {
	cfg := model.Default()
	cfg.MergeChunkEvents = chunk
	return cfg
}

// decoupledWorkload builds the same decoupled journal on any client: a
// subdirectory plus files both at the subtree root and one level down.
func decoupledWorkload(t *testing.T, p runtime.Task, c *Client, files int) {
	t.Helper()
	c.MkdirAll(p, "/job", 0755)
	if err := c.Decouple(p, "/job", decouplePolicy(policy.ConsWeak, policy.DurNone, 10000)); err != nil {
		t.Fatalf("decouple: %v", err)
	}
	root, _ := c.DecoupledRoot()
	sub, err := c.LocalMkdir(p, root, "sub", 0755)
	if err != nil {
		t.Fatalf("local mkdir: %v", err)
	}
	for i := 0; i < files; i++ {
		if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
			t.Fatalf("local create %d: %v", i, err)
		}
	}
	if _, err := c.LocalCreate(p, sub, "deep", 0644); err != nil {
		t.Fatalf("local create deep: %v", err)
	}
}

func TestRunCompositionStreamReset(t *testing.T) {
	// Stream is owned by the composition: a streaming composition turns
	// it on, and the next composition without the mechanism must turn it
	// back off rather than inherit it.
	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		comp, _ := policy.ParseComposition("rpcs+stream")
		if err := c.RunComposition(p, comp); err != nil {
			t.Errorf("streaming composition: %v", err)
			return
		}
		if !cl.srv.StreamEnabled() {
			t.Error("stream not enabled by streaming composition")
		}
		comp, _ = policy.ParseComposition("rpcs")
		if err := c.RunComposition(p, comp); err != nil {
			t.Errorf("rpcs composition: %v", err)
			return
		}
		if cl.srv.StreamEnabled() {
			t.Error("stream leaked past its composition")
		}
	})
}

func TestVolatileApplyChunkedMatchesOneShot(t *testing.T) {
	// The streamed merge is a transport change, not a semantic one: the
	// chunked pipeline must produce the same namespace and applied count
	// as the one-shot path, while holding only one chunk in flight.
	const files = 120
	const chunk = 48

	oneshot := newCluster()
	a := oneshot.client("c0")
	var appliedA int
	oneshot.run(t, func(p runtime.Task) {
		decoupledWorkload(t, p, a, files)
		n, err := a.VolatileApply(p)
		if err != nil {
			t.Errorf("one-shot apply: %v", err)
		}
		appliedA = n
	})

	streamed := newClusterCfg(chunkedConfig(chunk))
	b := streamed.clientCfg("c0", chunkedConfig(chunk))
	var appliedB int
	streamed.run(t, func(p runtime.Task) {
		decoupledWorkload(t, p, b, files)
		n, err := b.VolatileApply(p)
		if err != nil {
			t.Errorf("chunked apply: %v", err)
		}
		appliedB = n
	})

	if appliedA != appliedB || appliedB != files+2 {
		t.Fatalf("applied: one-shot %d, chunked %d, want %d", appliedA, appliedB, files+2)
	}
	if !namespace.Equal(oneshot.srv.Store(), streamed.srv.Store()) {
		t.Fatal("chunked merge namespace differs from one-shot")
	}
	j, _ := b.Journal()
	if j.Len() != 0 {
		t.Fatalf("journal not cleared after chunked merge: %d", j.Len())
	}

	// Peak transfer memory: the whole journal one-shot, one chunk
	// streamed.
	evBytes := uint64(model.Default().JournalEventBytes)
	if want := uint64(files+2) * evBytes; a.Stats().PeakTransferBytes != want {
		t.Errorf("one-shot peak transfer = %d, want %d", a.Stats().PeakTransferBytes, want)
	}
	if want := uint64(chunk) * evBytes; b.Stats().PeakTransferBytes != want {
		t.Errorf("chunked peak transfer = %d, want %d", b.Stats().PeakTransferBytes, want)
	}
}

func TestLocalPersistChunkedMatchesOneShot(t *testing.T) {
	// Chunked Local Persist writes the identical journal image, one
	// chunk's encoding at a time.
	const files = 25
	const chunk = 10

	oneshot := newCluster()
	a := oneshot.client("c0")
	oneshot.run(t, func(p runtime.Task) {
		decoupledWorkload(t, p, a, files)
		if err := a.LocalPersist(p); err != nil {
			t.Errorf("one-shot persist: %v", err)
		}
	})

	streamed := newClusterCfg(chunkedConfig(chunk))
	b := streamed.clientCfg("c0", chunkedConfig(chunk))
	streamed.run(t, func(p runtime.Task) {
		decoupledWorkload(t, p, b, files)
		if err := b.LocalPersist(p); err != nil {
			t.Errorf("chunked persist: %v", err)
			return
		}
		// The chunked image is a valid journal file: a recovering client
		// reads the same events back.
		j, _ := b.Journal()
		j.Reset()
		if n, err := b.RecoverLocal(p); err != nil || n != files+2 {
			t.Errorf("recover from chunked image = %d, %v", n, err)
		}
	})

	fa, _ := a.LocalJournalFile()
	fb, _ := b.LocalJournalFile()
	if !bytes.Equal(fa, fb) {
		t.Fatalf("chunked journal image differs from one-shot: %d vs %d bytes", len(fb), len(fa))
	}
	// Peak transfer is nominal bytes on every path — the unit the disk is
	// billed in — so one full chunk's footprint exactly, not its (far
	// smaller) encoded size.
	evBytes := uint64(model.Default().JournalEventBytes)
	if got, want := b.Stats().PeakTransferBytes, uint64(chunk)*evBytes; got != want {
		t.Errorf("chunked persist peak transfer = %d, want %d", got, want)
	}
	if got, want := a.Stats().PeakTransferBytes, uint64(files+2)*evBytes; got != want {
		t.Errorf("one-shot persist peak transfer = %d, want %d", got, want)
	}
}

func TestGlobalPersistChunkedFetch(t *testing.T) {
	// Chunked Global Persist writes a head chunk and a tail of chunk
	// objects; any client fetches them back as the same event stream.
	const files = 20
	const chunk = 7
	cfg := chunkedConfig(chunk)
	cl := newClusterCfg(cfg)
	c := cl.clientCfg("c0", cfg)
	other := cl.clientCfg("c1", cfg)
	cl.run(t, func(p runtime.Task) {
		decoupledWorkload(t, p, c, files)
		if err := c.GlobalPersist(p); err != nil {
			t.Errorf("global persist: %v", err)
			return
		}
		events, err := other.FetchGlobalJournal(p, "c0")
		if err != nil {
			t.Errorf("fetch: %v", err)
			return
		}
		j, _ := c.Journal()
		if !reflect.DeepEqual(events, j.Events()) {
			t.Errorf("fetched events differ: got %d, journal %d", len(events), j.Len())
		}
	})
	evBytes := uint64(cfg.JournalEventBytes)
	if got, want := c.Stats().PeakTransferBytes, uint64(chunk)*evBytes; got != want {
		t.Errorf("chunked persist peak transfer = %d nominal bytes, want %d", got, want)
	}
}

func TestGlobalPersistChunkedEmptyJournal(t *testing.T) {
	cfg := chunkedConfig(8)
	cl := newClusterCfg(cfg)
	c := cl.clientCfg("c0", cfg)
	other := cl.clientCfg("c1", cfg)
	cl.run(t, func(p runtime.Task) {
		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsInvisible, policy.DurGlobal, 100))
		if err := c.GlobalPersist(p); err != nil {
			t.Errorf("empty persist: %v", err)
			return
		}
		events, err := other.FetchGlobalJournal(p, "c0")
		if err != nil || len(events) != 0 {
			t.Errorf("empty fetch = %d events, %v", len(events), err)
		}
	})
}

func TestPersistSequenceLastPersistWins(t *testing.T) {
	// The same owner persists twice, under any two chunk sizes (the
	// tunable may change across restarts) and any two journal lengths (the
	// global_persist -> apply -> new-work cycle). There is one persisted
	// layout — head chunk plus tail chunks — so whichever persist ran last
	// must be exactly what a reader gets back: no phantom tail left by a
	// longer or finer-chunked predecessor, no stale head shadowing the
	// fresh chunks. The locally persisted image must agree.
	const whole = 0 // MergeChunkEvents 0: the journal is one chunk
	for _, tc := range []struct {
		name                     string
		firstChunk, firstFiles   int
		secondChunk, secondFiles int
	}{
		{"whole-then-1", whole, 12, 1, 4},
		{"1-then-whole", 1, 12, whole, 4},
		{"256-then-7", 256, 4, 7, 20},
		{"7-then-256", 7, 20, 256, 4},
		{"whole-then-shorter-whole", whole, 20, whole, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newClusterCfg(model.Default())
			a := cl.clientCfg("c0", chunkedConfig(tc.firstChunk))
			b := cl.clientCfg("c0", chunkedConfig(tc.secondChunk))
			reader := cl.clientCfg("c1", model.Default())
			cl.run(t, func(p runtime.Task) {
				for _, step := range []struct {
					c     *Client
					files int
				}{{a, tc.firstFiles}, {b, tc.secondFiles}} {
					decoupledWorkload(t, p, step.c, step.files)
					if err := step.c.LocalPersist(p); err != nil {
						t.Fatalf("local persist: %v", err)
					}
					if err := step.c.GlobalPersist(p); err != nil {
						t.Fatalf("global persist: %v", err)
					}
				}
				j, _ := b.Journal()
				want := j.Events()
				if len(want) != tc.secondFiles+2 {
					t.Fatalf("second journal holds %d events, want %d", len(want), tc.secondFiles+2)
				}
				fetched, err := reader.FetchGlobalJournal(p, "c0")
				if err != nil {
					t.Fatalf("fetch: %v", err)
				}
				if !reflect.DeepEqual(fetched, want) {
					t.Errorf("fetched %d events, want exactly the last persist's %d", len(fetched), len(want))
				}
				j.Reset()
				if n, err := b.RecoverLocal(p); err != nil || n != len(want) {
					t.Fatalf("recover local = %d, %v; want %d", n, err, len(want))
				}
				j, _ = b.Journal()
				if !reflect.DeepEqual(j.Events(), want) {
					t.Errorf("locally recovered journal differs from the last persist")
				}
			})
		})
	}
}

func TestLocalPersistChunkedErrorKeepsOldImage(t *testing.T) {
	// A chunked Local Persist that fails mid-encode must leave the
	// previously stored recovery image untouched, not half-overwritten.
	cfg := chunkedConfig(4)
	cl := newClusterCfg(cfg)
	c := cl.clientCfg("c0", cfg)
	cl.run(t, func(p runtime.Task) {
		decoupledWorkload(t, p, c, 6) // 8 events
		if err := c.LocalPersist(p); err != nil {
			t.Fatalf("first persist: %v", err)
		}
		file, _ := c.LocalJournalFile()
		good := append([]byte(nil), file...)

		// Corrupt the newest journal event in place so the re-encode
		// fails partway through the image.
		j, _ := c.Journal()
		evs := j.Events()
		evs[len(evs)-1].Name = ""
		if err := c.LocalPersist(p); !errors.Is(err, journal.ErrBadEvent) {
			t.Fatalf("corrupt persist = %v, want ErrBadEvent", err)
		}

		file, ok := c.LocalJournalFile()
		if !ok || !bytes.Equal(file, good) {
			t.Fatalf("stored image changed on failed persist: %d bytes, want %d unchanged", len(file), len(good))
		}
		// The old image still recovers in full.
		j.Reset()
		if n, err := c.RecoverLocal(p); err != nil || n != 8 {
			t.Fatalf("recover from preserved image = %d, %v; want 8", n, err)
		}
	})
}

func TestVolatileApplyChunkedAbortOnShutdown(t *testing.T) {
	// An error mid-stream (here: MDS shutdown) must abort the admitted
	// merge job, not abandon it: an orphaned job would park the scheduler
	// forever and pin the merge queue's congestion pricing for the rest
	// of the run.
	cfg := chunkedConfig(8)
	cl := newClusterCfg(cfg)
	c := cl.clientCfg("c0", cfg)
	var applyErr error
	cl.run(t, func(p runtime.Task) {
		decoupledWorkload(t, p, c, 100) // 102 events: 13 chunks
		g := cl.eng.NewGroup()
		g.Go("apply", func(sp runtime.Task) {
			_, applyErr = c.VolatileApply(sp)
		})
		g.Go("kill", func(sp runtime.Task) {
			for cl.srv.Metrics().MergeChunks < 3 {
				sp.Sleep(runtime.Duration(100 * time.Microsecond))
			}
			cl.srv.Shutdown()
		})
		g.Wait(p)
	})
	if !errors.Is(applyErr, mds.ErrShutdown) {
		t.Fatalf("apply against dying MDS = %v, want ErrShutdown", applyErr)
	}
	if got := cl.srv.MergeQueue(); got != 0 {
		t.Errorf("merge queue after aborted merge = %d, want 0", got)
	}
}

func TestConcurrentVolatileApplyDeterministicAndFair(t *testing.T) {
	// Two decoupled clients merge into the same rank at the same time.
	// The streamed scheduler must interleave them into one correct
	// namespace, deterministically, and keep the max-chunk-wait spread
	// between the (unequal) jobs within a few chunk services — the
	// fairness the round-robin scheduler exists to provide.
	const chunk = 16
	const filesA, filesB = 64, 96

	seed := func(p runtime.Task, c *Client, path string, files int) error {
		if _, err := c.MkdirAll(p, path, 0755); err != nil {
			return err
		}
		if err := c.Decouple(p, path, decouplePolicy(policy.ConsWeak, policy.DurNone, 10000)); err != nil {
			return err
		}
		root, _ := c.DecoupledRoot()
		for i := 0; i < files; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644); err != nil {
				return err
			}
		}
		return nil
	}

	runOnce := func(t *testing.T) *cluster {
		t.Helper()
		cfg := chunkedConfig(chunk)
		cl := newClusterCfg(cfg)
		a := cl.clientCfg("c0", cfg)
		b := cl.clientCfg("c1", cfg)
		var nA, nB int
		var errA, errB error
		cl.run(t, func(p runtime.Task) {
			if err := seed(p, a, "/jobA", filesA); err != nil {
				t.Errorf("seed a: %v", err)
				return
			}
			if err := seed(p, b, "/jobB", filesB); err != nil {
				t.Errorf("seed b: %v", err)
				return
			}
			g := cl.eng.NewGroup()
			g.Go("merge.a", func(sp runtime.Task) { nA, errA = a.VolatileApply(sp) })
			g.Go("merge.b", func(sp runtime.Task) { nB, errB = b.VolatileApply(sp) })
			g.Wait(p)
		})
		if errA != nil || nA != filesA {
			t.Fatalf("merge a = %d, %v; want %d", nA, errA, filesA)
		}
		if errB != nil || nB != filesB {
			t.Fatalf("merge b = %d, %v; want %d", nB, errB, filesB)
		}
		for _, name := range []string{fmt.Sprintf("/jobA/f%d", filesA-1), fmt.Sprintf("/jobB/f%d", filesB-1)} {
			if _, err := cl.srv.Store().Resolve(name); err != nil {
				t.Errorf("%s missing after concurrent merge: %v", name, err)
			}
		}
		return cl
	}

	one := runOnce(t)
	two := runOnce(t)
	if !namespace.Equal(one.srv.Store(), two.srv.Store()) {
		t.Error("concurrent merge namespace differs between identical runs")
	}

	spread, jobs := one.srv.MergeFairness()
	if jobs != 2 {
		t.Fatalf("fairness jobs = %d, want 2", jobs)
	}
	// The second open serializes behind the first on the rank's CPU, so
	// the earlier job's chunks can buffer for up to one MDSMergeSetup
	// before the scheduler gets the CPU back; past that, round-robin
	// interleaving must keep the unequal jobs within a couple of chunk
	// services of each other.
	limit := runtime.Duration(chunkedConfig(chunk).MDSMergeSetup) + runtime.Duration(30*time.Millisecond)
	if spread > limit {
		t.Errorf("max chunk-wait spread = %v, want <= %v", spread, limit)
	}
	if one.srv.MergeQueue() != 0 {
		t.Errorf("merge queue not drained: %d", one.srv.MergeQueue())
	}
}

func TestNonvolatileApplyDeepAncestorChain(t *testing.T) {
	// A subtree decoupled 32 directories down: the first journal event
	// forces loadChain to pull the whole ancestor chain from the object
	// store, iteratively, before the update applies.
	const depth = 32
	parts := make([]string, depth)
	for i := range parts {
		parts[i] = fmt.Sprintf("d%d", i)
	}
	deep := "/" + strings.Join(parts, "/")

	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		if _, err := c.MkdirAll(p, deep, 0755); err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		if err := cl.srv.SaveStore(p); err != nil {
			t.Errorf("save store: %v", err)
			return
		}
		c.Decouple(p, deep, decouplePolicy(policy.ConsWeak, policy.DurGlobal, 100))
		root, _ := c.DecoupledRoot()
		for i := 0; i < 3; i++ {
			c.LocalCreate(p, root, fmt.Sprintf("f%d", i), 0644)
		}
		if n, err := c.NonvolatileApply(p); err != nil || n != 3 {
			t.Errorf("nonvolatile apply = %d, %v", n, err)
			return
		}
		if err := cl.srv.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if _, err := cl.srv.Store().Resolve(deep + "/f2"); err != nil {
			t.Errorf("deep file missing after recovery: %v", err)
		}
	})
}

func TestNonvolatileApplyAncestorCycle(t *testing.T) {
	// Corrupt directory objects whose Parent pointers form a cycle must
	// fail the merge with an error, not hang the client. Two legitimate
	// stores forge the halves: in one, b is a's parent; in the other, a
	// is b's.
	const (
		aIno = namespace.Ino(1 << 50)
		bIno = namespace.Ino(1<<50 + 1)
	)
	forge := func(top, bottom namespace.Ino, topName, bottomName string) []byte {
		s := namespace.NewStore()
		if _, err := s.Mkdir(namespace.RootIno, topName, namespace.CreateAttrs{Ino: top, Mode: 0755}); err != nil {
			t.Fatalf("forge mkdir: %v", err)
		}
		if _, err := s.Mkdir(top, bottomName, namespace.CreateAttrs{Ino: bottom, Mode: 0755}); err != nil {
			t.Fatalf("forge mkdir: %v", err)
		}
		data, err := s.EncodeDir(bottom)
		if err != nil {
			t.Fatalf("forge encode: %v", err)
		}
		return data
	}
	aData := forge(bIno, aIno, "b", "a") // a's object says Parent == b
	bData := forge(aIno, bIno, "a", "b") // b's object says Parent == a

	cl := newCluster()
	c := cl.client("c0")
	cl.run(t, func(p runtime.Task) {
		cl.obj.Write(p, rados.ObjectID{Pool: namespace.ObjectPool,
			Name: namespace.DirObjectName(aIno)}, aData)
		cl.obj.Write(p, rados.ObjectID{Pool: namespace.ObjectPool,
			Name: namespace.DirObjectName(bIno)}, bData)

		c.MkdirAll(p, "/job", 0755)
		c.Decouple(p, "/job", decouplePolicy(policy.ConsWeak, policy.DurGlobal, 100))
		j, _ := c.Journal()
		j.Append(&journal.Event{Type: journal.EvCreate, Client: "c0",
			Parent: uint64(aIno), Name: "x", Ino: uint64(aIno) + 100, Mode: 0644})

		n, err := c.NonvolatileApply(p)
		if !errors.Is(err, namespace.ErrInval) {
			t.Errorf("apply over cycle = %d, %v; want ErrInval", n, err)
		}
	})
}
