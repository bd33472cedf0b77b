package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"cudele"
	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
)

const (
	ioClients      = 2
	ioStrongPerCli = 2_500 // strong-global Creates per client per repetition
	ioLocalPerCli  = 5_000 // local creates per client per decoupled cell
	ioNonvolatile  = 100   // events through Nonvolatile Apply
	ioSegment      = 256   // journal segment size: every cell seals and fsyncs several segments
)

var ioStrongGlobal = cellSpec{policy.ConsStrong, policy.DurGlobal}

var ioDecoupledCells = []cellSpec{
	{policy.ConsWeak, policy.DurLocal},
	{policy.ConsWeak, policy.DurGlobal},
	{policy.ConsSpeculative, policy.DurGlobal},
	{policy.ConsStrongEventual, policy.DurGlobal},
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// sameCreates checks that got is exactly the acknowledged sequence: one
// create per generated op, same names, same order.
func sameCreates(owner string, got []*journal.Event, want []localOp) error {
	if len(got) != len(want) {
		return checkErr("reopen-journal", "%s: %d events read back, %d were acknowledged", owner, len(got), len(want))
	}
	for i, ev := range got {
		if ev.Type != journal.EvCreate || ev.Name != want[i].name {
			return checkErr("reopen-journal", "%s: event %d is %s %q, acknowledged create %q", owner, i, ev.Type, ev.Name, want[i].name)
		}
	}
	return nil
}

// runIO is the durable workload: a real data dir, fsynced objects and a
// loopback-TCP round trip on every Call. An update counts as done only
// if a restart from the flushed bytes can read it back, so after the
// cells the cluster is dropped and the data dir reopened by a new one.
func runIO(ctx *runCtx, rep int, traced bool) (res *repResult, err error) {
	began := time.Now()
	res = newRepResult(rep, traced)
	seed := ctx.seed + int64(rep)
	rng := newRand(seed)
	nStrong, nLocal, nNV := ctx.scaled(ioStrongPerCli), ctx.scaled(ioLocalPerCli), ctx.scaled(ioNonvolatile)
	if nNV < 10 {
		nNV = 10
	}

	dataDir, err := os.MkdirTemp(ctx.outDir, "data-")
	if err != nil {
		return nil, fmt.Errorf("real_io data dir: %w", err)
	}
	defer func() {
		if rerr := os.RemoveAll(dataDir); rerr != nil && err == nil {
			err = fmt.Errorf("real_io remove data dir: %w", rerr)
		}
	}()
	cfg := ctx.hostCfg
	cfg.SegmentEvents = ioSegment
	cl := cudele.NewCluster(cudele.WithSeed(seed), cudele.WithBackend(cudele.BackendReal),
		cudele.WithConfig(cfg), cudele.WithDataDir(dataDir), cudele.WithLoopbackNet())
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()

	// Inputs and clients for every cell, then one set-up task.
	type strongClient struct {
		c     *cudele.Client
		path  string
		dir   namespace.Ino
		names []string
		rec   *taskRec
	}
	strong := make([]*strongClient, ioClients)
	var allClients []*cudele.Client
	for i := range strong {
		name := fmt.Sprintf("%s.c%d", ioStrongGlobal.name(), i)
		strong[i] = &strongClient{
			c:     cl.NewClient(name),
			path:  fmt.Sprintf("/%s/c%d", ioStrongGlobal.name(), i),
			names: (&nameGen{rng: rng}).list("f", nStrong),
			rec:   newTaskRec(name, traced, nStrong),
		}
		allClients = append(allClients, strong[i].c)
	}
	if ctx.plant == plantSkipCreate {
		strong[0].names = strong[0].names[:nStrong-1]
	}
	cells := make([][]*cellClient, len(ioDecoupledCells))
	for ci, cell := range ioDecoupledCells {
		cells[ci] = newCellClients(cl, rng, cell, ioClients, nLocal, 0, 0, traced, false, false)
		for _, cc := range cells[ci] {
			allClients = append(allClients, cc.c)
		}
	}
	nvCell := cellSpec{policy.ConsWeak, policy.DurGlobal}
	nv := &cellClient{
		c:    cl.NewClient("nonvolatile.c0"),
		path: "/nonvolatile/c0",
		in:   genLocal(rng, nNV, 0, 0),
	}
	nv.rec = newTaskRec(nv.c.Name(), traced, nNV)
	allClients = append(allClients, nv.c)

	var setupErr error
	cl.Run(func(p cudele.Proc) {
		for _, sc := range strong {
			if sc.dir, setupErr = sc.c.MkdirAll(p, sc.path, 0755); setupErr != nil {
				return
			}
		}
		for ci, cell := range ioDecoupledCells {
			if setupErr = decoupleClients(p, cl, cell, cells[ci]); setupErr != nil {
				return
			}
		}
		if setupErr = decoupleClients(p, cl, nvCell, []*cellClient{nv}); setupErr != nil {
			return
		}
		// Directory objects must exist in the object store before
		// Nonvolatile Apply and before a restarted MDS can recover.
		setupErr = cl.MDS().SaveStore(p)
	})
	if setupErr != nil {
		return nil, fmt.Errorf("real_io setup: %w", setupErr)
	}
	rpcsBefore := sumRPCs(allClients)
	repSpan := res.phase("rep", "bench", -1)

	// strong-global: RPC creates with the MDS streaming its journal; the
	// cell ends when the journal is flushed to the object store.
	cl.MDS().SetStream(true)
	comp, err := cudele.CompileTableI(ioStrongGlobal.cons, ioStrongGlobal.dur)
	if err != nil {
		return nil, err
	}
	cellSpan := res.phase("cell."+ioStrongGlobal.name(), "bench", repSpan)
	strongErr := make([]error, ioClients)
	mark := beginWindow()
	for i, sc := range strong {
		i, sc := i, sc
		cl.Go(sc.c.Name(), func(p cudele.Proc) {
			task := res.phase("client", sc.c.Name(), cellSpan)
			sc.rec.parent = task
			for _, name := range sc.names {
				t0 := time.Now()
				_, err := sc.c.Create(p, sc.dir, name, 0644)
				sc.rec.done(opCreate, true, t0, err)
			}
			span := res.phase("composition", sc.c.Name(), task)
			if strongErr[i] = sc.c.RunComposition(p, comp); strongErr[i] == nil {
				cl.MDS().FlushJournal(p)
			}
			res.closePhase(span)
			res.closePhase(task)
		})
	}
	cl.RunAll()
	w := mark.end()
	res.closePhase(cellSpan)
	res.win.add(w)
	var strongOps int64
	for i, sc := range strong {
		if strongErr[i] != nil {
			return nil, strongErr[i]
		}
		if err := res.absorb(sc.rec); err != nil {
			return nil, err
		}
		strongOps += sc.rec.attempted - sc.rec.failed
	}
	res.cells[ioStrongGlobal.name()] = cellResult{ops: strongOps, wall: w.wall}

	// The decoupled durable cells. Their calls are outside the
	// op_p50/op_p99 pool, which is the strong-global Create.
	for ci, cell := range ioDecoupledCells {
		if err := runDecoupledCell(cl, res, cell, cells[ci], repSpan); err != nil {
			return nil, err
		}
	}

	// Nonvolatile Apply: the journal is replayed onto the object store's
	// directory objects, four object operations per event.
	nvSpan := res.phase("cell.nonvolatile", "bench", repSpan)
	mark = beginWindow()
	cl.Go(nv.c.Name(), func(p cudele.Proc) {
		task := res.phase("client", nv.c.Name(), nvSpan)
		nv.rec.parent = task
		runLocalOps(p, nv)
		if nv.err == nil {
			span := res.phase("mech.nonvolatile_apply", nv.c.Name(), task)
			t0 := time.Now()
			_, nv.err = nv.c.NonvolatileApply(p)
			res.extra.nonvolatileNS += int64(time.Since(t0))
			res.extra.nonvolatileEvents += int64(nNV)
			res.closePhase(span)
		}
		res.closePhase(task)
	})
	cl.RunAll()
	res.win.add(mark.end())
	res.closePhase(nvSpan)
	if nv.err != nil {
		return nil, fmt.Errorf("real_io nonvolatile apply: %w", nv.err)
	}
	if err := res.absorb(nv.rec); err != nil {
		return nil, err
	}
	res.closePhase(repSpan)

	res.counts = readCounts(cl, allClients)
	res.counts.ClientRPCs -= rpcsBefore

	// Checks on the live cluster.
	st := cl.MDS().Store()
	for _, sc := range strong {
		if err := checkDir(st, sc.path, nStrong, sc.names); err != nil {
			return nil, err
		}
	}
	for ci, cell := range ioDecoupledCells {
		for _, cc := range cells[ci] {
			if err := checkMerged(st, cell, cc); err != nil {
				return nil, err
			}
		}
		if cell.cons == policy.ConsStrongEventual {
			if err := checkConverged(st, "/"+cell.name(), cells[ci]); err != nil {
				return nil, err
			}
		}
	}
	if err := checkStores(cl); err != nil {
		return nil, err
	}
	for _, cc := range cells[0] { // weak-local
		b, ok := cc.c.LocalJournalFile()
		if !ok {
			return nil, checkErr("reopen-journal", "%s: no local journal file", cc.c.Name())
		}
		evs, err := journal.Decode(b)
		if err != nil {
			return nil, checkErr("reopen-journal", "%s: local journal file: %v", cc.c.Name(), err)
		}
		if err := sameCreates(cc.c.Name()+" (LocalJournalFile)", evs, cc.in.ops); err != nil {
			return nil, err
		}
	}
	closed = true
	if err := closeCluster(cl); err != nil {
		return nil, err
	}
	if res.extra.diskBytes, err = dirBytes(dataDir); err != nil {
		return nil, fmt.Errorf("real_io: measure data dir: %w", err)
	}

	// Restart: a new cluster over the same data dir must read back
	// exactly what was acknowledged.
	cl2 := cudele.NewCluster(cudele.WithSeed(seed+1), cudele.WithBackend(cudele.BackendReal),
		cudele.WithConfig(cfg), cudele.WithDataDir(dataDir))
	reader := cl2.NewClient("reader")
	var reopenErr error
	cl2.Run(func(p cudele.Proc) {
		reopenErr = func() error {
			for ci, cell := range ioDecoupledCells {
				if cell.dur != policy.DurGlobal {
					continue
				}
				for i, cc := range cells[ci] {
					t0 := time.Now()
					evs, err := reader.FetchGlobalJournal(p, cc.c.Name())
					res.extra.fetchNS += int64(time.Since(t0))
					if err != nil {
						return checkErr("reopen-journal", "%s: %v", cc.c.Name(), err)
					}
					bytes := cc.encodedBytes()
					res.extra.fetchBytes += bytes
					res.extra.userBytes += bytes
					if ctx.plant == plantDropEvent && ci == 1 && i == 0 {
						evs = evs[:len(evs)-1]
					}
					if err := sameCreates(cc.c.Name(), evs, cc.in.ops); err != nil {
						return err
					}
				}
			}
			// The streamed MDS journal: its objects are the encoded
			// segments, and a recovering MDS replays them.
			for _, name := range cl2.Objects().List(p, mds.JournalPool) {
				n, err := cl2.Objects().Stat(p, rados.ObjectID{Pool: mds.JournalPool, Name: name})
				if err != nil {
					return checkErr("reopen-journal", "stat %s: %v", name, err)
				}
				res.extra.userBytes += int64(n)
			}
			if err := cl2.MDS().Recover(p); err != nil {
				return checkErr("reopen-journal", "MDS recover: %v", err)
			}
			st2 := cl2.MDS().Store()
			for _, sc := range strong {
				if err := checkDir(st2, sc.path, nStrong, sc.names); err != nil {
					return err
				}
			}
			if err := checkDir(st2, nv.path, nNV, nv.in.live[0]); err != nil {
				return err
			}
			// weak-local: a restarted client recovers its journal from
			// the file Local Persist fsynced.
			for _, cc := range cells[0] {
				rc := cl2.NewClient(cc.c.Name())
				if _, err := cl2.DecouplePolicy(p, rc, cc.path, &cudele.Policy{
					Consistency: policy.ConsWeak, Durability: policy.DurLocal,
					AllocatedInodes: cc.in.creates + 16,
				}); err != nil {
					return checkErr("reopen-journal", "%s: re-decouple: %v", cc.c.Name(), err)
				}
				if _, err := rc.RecoverLocal(p); err != nil {
					return checkErr("reopen-journal", "%s: RecoverLocal: %v", cc.c.Name(), err)
				}
				evs, err := rc.JournalEvents()
				if err != nil {
					return checkErr("reopen-journal", "%s: %v", cc.c.Name(), err)
				}
				if err := sameCreates(cc.c.Name()+" (RecoverLocal)", evs, cc.in.ops); err != nil {
					return err
				}
				res.extra.userBytes += cc.encodedBytes()
			}
			return nil
		}()
	})
	if reopenErr != nil {
		cl2.Close()
		return nil, reopenErr
	}
	if err := closeCluster(cl2); err != nil {
		return nil, err
	}
	finishRep(res, began)
	return res, nil
}
