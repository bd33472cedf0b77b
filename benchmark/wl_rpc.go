package main

import (
	"fmt"
	"time"

	"cudele"
	"cudele/internal/namespace"
)

const (
	rpcClients     = 2      // = nproc on the builder's machine
	rpcWritePerCli = 20_000 // calls per client per repetition
	rpcReadPerCli  = 25_000
	rpcReadDirs    = 100  // prefilled directories at depth 3
	rpcReadFiles   = 1000 // files per directory, and entries per ReadDir
)

func sumRPCs(clients []*cudele.Client) uint64 {
	var n uint64
	for _, c := range clients {
		n += c.Stats().RPCs
	}
	return n
}

// runRPCWrite is the strong-none cell on the real backend: each client
// mutates a private directory that lives on its own rank.
func runRPCWrite(ctx *runCtx, rep int, traced bool) (*repResult, error) {
	began := time.Now()
	res := newRepResult(rep, traced)
	seed := ctx.seed + int64(rep)
	rng := newRand(seed)

	n := ctx.scaled(rpcWritePerCli)
	inputs := make([]rpcWriteInput, rpcClients)
	for i := range inputs {
		inputs[i] = genRPCWrite(rng, n)
	}
	if ctx.plant == plantSkipCreate {
		// Drop the last Create the sequence never touches again.
		ops := inputs[0].ops
		last := map[int32]int{}
		for i, op := range ops {
			last[op.slot] = i
		}
		for i := len(ops) - 1; i >= 0; i-- {
			if ops[i].kind == opCreate && last[ops[i].slot] == i {
				inputs[0].ops = append(ops[:i:i], ops[i+1:]...)
				break
			}
		}
	}

	cl := cudele.NewCluster(cudele.WithSeed(seed), cudele.WithBackend(cudele.BackendReal),
		cudele.WithConfig(ctx.hostCfg), cudele.WithMDSRanks(rpcClients))
	clients := make([]*cudele.Client, rpcClients)
	for i := range clients {
		clients[i] = cl.NewClient(fmt.Sprintf("client.%d", i))
	}
	dirs := make([]namespace.Ino, rpcClients)
	var setupErr error
	cl.Run(func(p cudele.Proc) {
		for i, c := range clients {
			if dirs[i], setupErr = c.Mkdir(p, cudele.RootIno, fmt.Sprintf("dir%d", i), 0755); setupErr != nil {
				return
			}
			if setupErr = cl.Monitor().Place(p, fmt.Sprintf("/dir%d", i), i); setupErr != nil {
				return
			}
		}
	})
	if setupErr != nil {
		return nil, fmt.Errorf("real_rpc_write setup: %w", setupErr)
	}

	recs := make([]*taskRec, rpcClients)
	inos := make([][]namespace.Ino, rpcClients)
	for i := range recs {
		recs[i] = newTaskRec(clients[i].Name(), traced, len(inputs[i].ops))
		inos[i] = make([]namespace.Ino, inputs[i].slots)
	}
	rpcsBefore := sumRPCs(clients)
	repSpan := res.phase("rep", "bench", -1)
	for _, rec := range recs {
		rec.parent = repSpan
	}
	mark := beginWindow()
	for i, c := range clients {
		i, c := i, c
		cl.Go(c.Name(), func(p cudele.Proc) {
			rec, dir, ino := recs[i], dirs[i], inos[i]
			for k := range inputs[i].ops {
				op := &inputs[i].ops[k]
				t0 := time.Now()
				var err error
				switch op.kind {
				case opCreate:
					ino[op.slot], err = c.Create(p, dir, op.name, 0644)
				case opUnlink:
					err = c.Unlink(p, dir, op.name)
				case opRename:
					err = c.Rename(p, dir, op.name, dir, op.newName)
				case opSetAttr:
					err = c.SetAttr(p, ino[op.slot], 0600, 1, 1, uint64(k), int64(k))
				}
				rec.done(op.kind, true, t0, err)
			}
		})
	}
	cl.RunAll()
	res.win = mark.end()
	res.closePhase(repSpan)

	if err := res.absorb(recs...); err != nil {
		return nil, err
	}
	res.counts = readCounts(cl, clients)
	res.counts.ClientRPCs -= rpcsBefore
	for i := range clients {
		st := cl.Metadata().Rank(i).Store()
		if err := checkDir(st, fmt.Sprintf("/dir%d", i), len(inputs[i].live), inputs[i].live); err != nil {
			return nil, err
		}
	}
	if err := checkStores(cl); err != nil {
		return nil, err
	}
	if res.counts.RadosWrites != 0 {
		return nil, checkErr("isolation", "real_rpc_write made %d object writes, want 0", res.counts.RadosWrites)
	}
	if err := closeCluster(cl); err != nil {
		return nil, err
	}
	finishRep(res, began)
	return res, nil
}

// runRPCRead serves reads from a prefilled tree of rpcReadDirs
// directories at depth 3, each holding the same number of files.
func runRPCRead(ctx *runCtx, rep int, traced bool) (*repResult, error) {
	began := time.Now()
	res := newRepResult(rep, traced)
	seed := ctx.seed + int64(rep)
	rng := newRand(seed)

	n := ctx.scaled(rpcReadPerCli)
	// A shrunken test run prefills at least 100 files per directory.
	files := max(100, ctx.scaled(rpcReadFiles))
	fileNames := (&nameGen{rng: rng}).list("f", files)
	ops := make([][]readOp, rpcClients)
	for i := range ops {
		ops[i] = genRPCRead(rng, n, rpcReadDirs, files)
	}

	cl := cudele.NewCluster(cudele.WithSeed(seed), cudele.WithBackend(cudele.BackendReal),
		cudele.WithConfig(ctx.hostCfg))
	// Prefill through the store: no task runs yet, and the RPC create
	// path is real_rpc_write's to measure.
	st := cl.MDS().Store()
	dirPath := make([]string, rpcReadDirs)
	dirIno := make([]namespace.Ino, rpcReadDirs)
	fileIno := make([][]namespace.Ino, rpcReadDirs)
	filePath := make([][]string, rpcReadDirs)
	for d := 0; d < rpcReadDirs; d++ {
		dirPath[d] = fmt.Sprintf("/tree/g%d/d%d", d/10, d%10)
		dir, err := st.MkdirAll(dirPath[d], namespace.CreateAttrs{Mode: 0755})
		if err != nil {
			return nil, fmt.Errorf("real_rpc_read prefill: %w", err)
		}
		dirIno[d] = dir.Ino
		fileIno[d] = make([]namespace.Ino, files)
		filePath[d] = make([]string, files)
		for f, name := range fileNames {
			in, err := st.Create(dir.Ino, name, namespace.CreateAttrs{Mode: 0644})
			if err != nil {
				return nil, fmt.Errorf("real_rpc_read prefill: %w", err)
			}
			fileIno[d][f] = in.Ino
			filePath[d][f] = dirPath[d] + "/" + name
		}
	}
	clients := make([]*cudele.Client, rpcClients)
	recs := make([]*taskRec, rpcClients)
	for i := range clients {
		clients[i] = cl.NewClient(fmt.Sprintf("client.%d", i))
		recs[i] = newTaskRec(clients[i].Name(), traced, n)
	}

	errWrong := fmt.Errorf("wrong answer")
	repSpan := res.phase("rep", "bench", -1)
	for _, rec := range recs {
		rec.parent = repSpan
	}
	mark := beginWindow()
	for i, c := range clients {
		i, c := i, c
		cl.Go(c.Name(), func(p cudele.Proc) {
			rec := recs[i]
			for _, op := range ops[i] {
				t0 := time.Now()
				var err error
				switch op.kind {
				case opLookup:
					var got namespace.Ino
					got, err = c.Lookup(p, dirIno[op.dir], fileNames[op.file])
					if err == nil && got != fileIno[op.dir][op.file] {
						err = errWrong
					}
				case opStat:
					r, serr := c.Stat(p, fileIno[op.dir][op.file])
					if err = serr; err == nil && r.Ino != fileIno[op.dir][op.file] {
						err = errWrong
					}
				case opResolve:
					var got namespace.Ino
					got, err = c.Resolve(p, filePath[op.dir][op.file])
					if err == nil && got != fileIno[op.dir][op.file] {
						err = errWrong
					}
				case opReadDir:
					var names []string
					names, err = c.ReadDir(p, dirIno[op.dir])
					if err == nil && len(names) != files {
						err = errWrong
					}
				}
				// ReadDir is 2 % of the calls and two orders of magnitude
				// slower; the latency pool is the point reads.
				rec.done(op.kind, op.kind != opReadDir, t0, err)
			}
		})
	}
	cl.RunAll()
	res.win = mark.end()
	res.closePhase(repSpan)

	if err := res.absorb(recs...); err != nil {
		return nil, err
	}
	res.counts = readCounts(cl, clients)
	for d := 0; d < rpcReadDirs; d += 37 {
		if err := checkDir(st, dirPath[d], files, fileNames); err != nil {
			return nil, err
		}
	}
	if got, want := st.Len(), 1+1+10+rpcReadDirs+rpcReadDirs*files; got != want {
		return nil, checkErr("entry-count", "store holds %d inodes after a read-only run, want %d", got, want)
	}
	if err := checkStores(cl); err != nil {
		return nil, err
	}
	if res.counts.RadosWrites != 0 {
		return nil, checkErr("isolation", "real_rpc_read made %d object writes, want 0", res.counts.RadosWrites)
	}
	if err := closeCluster(cl); err != nil {
		return nil, err
	}
	finishRep(res, began)
	return res, nil
}
