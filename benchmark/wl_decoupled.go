package main

import (
	"fmt"
	"math/rand"
	"time"

	"cudele"
	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/policy"
)

const (
	decClients   = 2
	decPerClient = 15_000 // local ops per client per cell per repetition
)

// cellSpec is one policy cell: a consistency and a durability level whose
// Table I composition runs after the client's local ops.
type cellSpec struct {
	cons policy.Consistency
	dur  policy.Durability
}

func (c cellSpec) name() string { return c.cons.String() + "-" + c.dur.String() }

var decoupledCells = []cellSpec{
	{policy.ConsInvisible, policy.DurNone},
	{policy.ConsWeak, policy.DurNone},
	{policy.ConsSpeculative, policy.DurNone},
	{policy.ConsStrongEventual, policy.DurNone},
}

// cellClient is one client's part in a cell.
type cellClient struct {
	c    *cudele.Client
	path string // its decoupled subtree
	in   localInput
	rec  *taskRec
	// pool says whether the client's calls are in the workload's
	// op_p50/op_p99 sample pool.
	pool bool
	// segs holds the journal's sealed segments as they stood when the
	// local ops finished: the acknowledged events, kept for the checks.
	segs []*journal.Segment
	// mechs times each mechanism of the composition; sized before the
	// window so recording allocates nothing.
	mechs []mechTiming
	err   error
}

type mechTiming struct {
	mech policy.Mechanism
	ns   int64
}

func (cc *cellClient) events() []*journal.Event {
	var out []*journal.Event
	for _, s := range cc.segs {
		out = append(out, s.Events...)
	}
	return out
}

// encodedBytes is the size of the journal image a persist mechanism wrote.
func (cc *cellClient) encodedBytes() int64 {
	n := int64(journal.MagicLen)
	for _, s := range cc.segs {
		for _, ev := range s.Events {
			n += int64(journal.RecordSize(ev))
		}
	}
	return n
}

// decoupleClients makes each client's subtree and registers the cell's
// policy for it (set-up: outside the measured window).
func decoupleClients(p cudele.Proc, cl *cudele.Cluster, cell cellSpec, ccs []*cellClient) error {
	for _, cc := range ccs {
		if _, err := cc.c.MkdirAll(p, cc.path, 0755); err != nil {
			return fmt.Errorf("%s: mkdir %s: %w", cell.name(), cc.path, err)
		}
		if _, err := cl.DecouplePolicy(p, cc.c, cc.path, &cudele.Policy{
			Consistency: cell.cons, Durability: cell.dur,
			AllocatedInodes: cc.in.creates + 16, Interfere: cudele.InterfereAllow,
		}); err != nil {
			return fmt.Errorf("%s: decouple %s: %w", cell.name(), cc.path, err)
		}
	}
	return nil
}

// runLocalOps issues the client's generated decoupled calls. It runs
// inside the measured window.
func runLocalOps(p cudele.Proc, cc *cellClient) {
	root, err := cc.c.DecoupledRoot()
	if err != nil {
		cc.err = err
		return
	}
	dirIno := make([]namespace.Ino, 1, len(cc.in.dirNames))
	dirIno[0] = root
	c, rec := cc.c, cc.rec
	for k := range cc.in.ops {
		op := &cc.in.ops[k]
		t0 := time.Now()
		var err error
		switch op.kind {
		case opLocalCreate:
			_, err = c.LocalCreate(p, dirIno[op.dir], op.name, 0644)
		case opLocalMkdir:
			var ino namespace.Ino
			ino, err = c.LocalMkdir(p, dirIno[op.dir], op.name, 0755)
			dirIno = append(dirIno, ino)
		case opLocalUnlink:
			err = c.LocalUnlink(p, dirIno[op.dir], op.name)
		}
		rec.done(op.kind, cc.pool, t0, err)
	}
	// Seal so Segments() is the whole journal; the slice outlives the
	// Reset that follows a merge and costs the window no copy.
	j, err := c.Journal()
	if err != nil {
		cc.err = err
		return
	}
	j.Seal()
	cc.segs = j.Segments()
}

// runCompositionTimed runs the cell's Table I composition one mechanism
// at a time so each gets its own span and its duration lands in the right
// per-layer bucket. It runs inside the measured window.
func runCompositionTimed(p cudele.Proc, res *repResult, cell cellSpec, cc *cellClient, parent int) {
	comp, err := cudele.CompileTableI(cell.cons, cell.dur)
	if err != nil {
		cc.err = err
		return
	}
	compSpan := res.phase("composition", cc.c.Name(), parent)
	for _, step := range comp {
		mech := step.Parallel[0]
		span := res.phase("mech."+mech.String(), cc.c.Name(), compSpan)
		t0 := time.Now()
		err := cc.c.RunComposition(p, policy.Composition{step})
		d := int64(time.Since(t0))
		res.closePhase(span)
		if err != nil {
			cc.err = fmt.Errorf("%s: %s: %s: %w", cell.name(), cc.c.Name(), mech, err)
			return
		}
		cc.mechs = append(cc.mechs, mechTiming{mech, d})
	}
	res.closePhase(compSpan)
}

// foldMechs adds the client's mechanism timings, with the sizes they
// moved, to the repetition's per-layer buckets (after the window).
func foldMechs(res *repResult, cell cellSpec, cc *cellClient) {
	for _, m := range cc.mechs {
		switch m.mech {
		case policy.MechVolatileApply, policy.MechSpeculativeApply, policy.MechConvergeApply:
			res.extra.mergeNS[cell.cons.String()] += m.ns
			res.extra.mergeEvents[cell.cons.String()] += int64(len(cc.in.ops))
		case policy.MechLocalPersist:
			res.extra.localPersistNS += m.ns
			if b, ok := cc.c.LocalJournalFile(); ok {
				res.extra.localPersistBytes += int64(len(b))
			}
		case policy.MechGlobalPersist:
			res.extra.globalPersistNS += m.ns
			res.extra.globalPersistBytes += cc.encodedBytes()
		}
	}
}

// runDecoupledCell opens a measured window in which every client issues
// its local ops and then runs the cell's composition, and adds it to the
// repetition.
func runDecoupledCell(cl *cudele.Cluster, res *repResult, cell cellSpec, ccs []*cellClient, repSpan int) error {
	cellSpan := res.phase("cell."+cell.name(), "bench", repSpan)
	mark := beginWindow()
	for _, cc := range ccs {
		cc := cc
		cl.Go(cc.c.Name(), func(p cudele.Proc) {
			task := res.phase("client", cc.c.Name(), cellSpan)
			cc.rec.parent = task
			runLocalOps(p, cc)
			if cc.err == nil {
				runCompositionTimed(p, res, cell, cc, task)
			}
			res.closePhase(task)
		})
	}
	cl.RunAll()
	w := mark.end()
	res.closePhase(cellSpan)
	res.win.add(w)

	var ops int64
	for _, cc := range ccs {
		if cc.err != nil {
			return cc.err
		}
		if err := res.absorb(cc.rec); err != nil {
			return err
		}
		ops += cc.rec.attempted - cc.rec.failed
		foldMechs(res, cell, cc)
	}
	res.cells[cell.name()] = cellResult{ops: ops, wall: w.wall}
	return nil
}

// checkMerged asserts what the cell's composition must leave in the
// global namespace: everything the generated sequence left alive for a
// merging cell, nothing for invisible consistency.
func checkMerged(st *namespace.Store, cell cellSpec, cc *cellClient) error {
	if cell.cons == policy.ConsInvisible {
		return checkDir(st, cc.path, 0, nil)
	}
	if err := checkDir(st, cc.path, len(cc.in.live[0])+len(cc.in.dirNames)-1, cc.in.live[0]); err != nil {
		return err
	}
	for k := 1; k < len(cc.in.dirNames); k++ {
		if err := checkDir(st, cc.path+"/"+cc.in.dirNames[k], len(cc.in.live[k]), cc.in.live[k]); err != nil {
			return err
		}
	}
	return nil
}

// checkConverged asserts the strong-eventual property on what the MDS
// rendered: replaying the clients' acknowledged journals through a fresh
// resolver in the opposite client order yields the same image.
func checkConverged(st *namespace.Store, parent string, ccs []*cellClient) error {
	ref := namespace.NewStore()
	for _, cc := range ccs {
		// Same skeleton, same inode numbers: events name parents by inode.
		cur, refCur := st.Root(), ref.Root()
		for it := namespace.SplitIter(cc.path); ; {
			comp, ok := it.Next()
			if !ok {
				break
			}
			next, err := st.Lookup(cur.Ino, comp)
			if err != nil {
				return checkErr("se-converge", "%s: %v", cc.path, err)
			}
			refNext, err := ref.Lookup(refCur.Ino, comp)
			if err != nil {
				if refNext, err = ref.Mkdir(refCur.Ino, comp, namespace.CreateAttrs{Ino: next.Ino, Mode: next.Mode}); err != nil {
					return checkErr("se-converge", "reference skeleton %s: %v", cc.path, err)
				}
			}
			cur, refCur = next, refNext
		}
	}
	merger := namespace.NewSEMerger(ref)
	for i := len(ccs) - 1; i >= 0; i-- {
		for _, ev := range ccs[i].events() {
			if err := merger.ApplyEvent(ev); err != nil {
				return checkErr("se-converge", "reference merge: %v", err)
			}
		}
	}
	image := func(s *namespace.Store) (string, error) {
		in, err := s.Resolve(parent)
		if err != nil {
			return "", err
		}
		return namespace.SEImageOf(s, in.Ino)
	}
	got, err := image(st)
	if err != nil {
		return checkErr("se-converge", "%v", err)
	}
	want, err := image(ref)
	if err != nil {
		return checkErr("se-converge", "%v", err)
	}
	if got != want {
		return checkErr("se-converge", "SEImageOf(%s) differs between the MDS and the reverse-order reference merge (%d vs %d bytes)", parent, len(got), len(want))
	}
	return nil
}

// newCellClients generates inputs for n clients of one cell. Names carry
// the cell so one cluster can host several cells (real_io).
func newCellClients(cl *cudele.Cluster, rng *rand.Rand, cell cellSpec, n, ops, mkdirPct, unlinkPct int, traced, pool, plant bool) []*cellClient {
	ccs := make([]*cellClient, n)
	for i := range ccs {
		name := fmt.Sprintf("%s.c%d", cell.name(), i)
		in := genLocal(rng, ops, mkdirPct, unlinkPct)
		if plant && i == 0 {
			// Drop the last create of a file that stays alive.
			alive := map[string]bool{}
			for _, names := range in.live {
				for _, nm := range names {
					alive[nm] = true
				}
			}
			for k := len(in.ops) - 1; k >= 0; k-- {
				if in.ops[k].kind == opLocalCreate && alive[in.ops[k].name] {
					in.ops = append(in.ops[:k:k], in.ops[k+1:]...)
					break
				}
			}
		}
		ccs[i] = &cellClient{
			c:     cl.NewClient(name),
			path:  fmt.Sprintf("/%s/c%d", cell.name(), i),
			in:    in,
			rec:   newTaskRec(name, traced, len(in.ops)),
			pool:  pool,
			mechs: make([]mechTiming, 0, 4),
		}
	}
	return ccs
}

// runDecoupled runs the four *-none cells, each on a fresh cluster.
func runDecoupled(ctx *runCtx, rep int, traced bool) (*repResult, error) {
	began := time.Now()
	res := newRepResult(rep, traced)
	seed := ctx.seed + int64(rep)
	rng := newRand(seed)
	n := ctx.scaled(decPerClient)
	repSpan := res.phase("rep", "bench", -1)

	for ci, cell := range decoupledCells {
		cl := cudele.NewCluster(cudele.WithSeed(seed), cudele.WithBackend(cudele.BackendReal),
			cudele.WithConfig(ctx.hostCfg))
		ccs := newCellClients(cl, rng, cell, decClients, n, 5, 5, traced, true, ctx.plant == plantSkipCreate && ci == 1)
		clients := make([]*cudele.Client, len(ccs))
		for i, cc := range ccs {
			clients[i] = cc.c
		}
		var setupErr error
		cl.Run(func(p cudele.Proc) { setupErr = decoupleClients(p, cl, cell, ccs) })
		if setupErr != nil {
			return nil, setupErr
		}
		rpcsBefore := sumRPCs(clients)
		if err := runDecoupledCell(cl, res, cell, ccs, repSpan); err != nil {
			return nil, err
		}
		c := readCounts(cl, clients)
		c.ClientRPCs -= rpcsBefore
		res.counts.add(c)

		st := cl.MDS().Store()
		for _, cc := range ccs {
			if err := checkMerged(st, cell, cc); err != nil {
				return nil, err
			}
		}
		if cell.cons == policy.ConsStrongEventual {
			if err := checkConverged(st, "/"+cell.name(), ccs); err != nil {
				return nil, err
			}
		}
		if err := checkStores(cl); err != nil {
			return nil, err
		}
		if c.RadosWrites != 0 {
			return nil, checkErr("isolation", "real_decoupled %s made %d object writes, want 0", cell.name(), c.RadosWrites)
		}
		if err := closeCluster(cl); err != nil {
			return nil, err
		}
	}
	res.closePhase(repSpan)
	if rpcs := float64(res.counts.ClientRPCs) / float64(res.ops); rpcs >= 0.001 {
		return nil, checkErr("isolation", "real_decoupled made %.5f RPCs per op, want < 0.001", rpcs)
	}
	finishRep(res, began)
	return res, nil
}
