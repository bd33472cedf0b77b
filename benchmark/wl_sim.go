package main

import (
	"fmt"
	"time"

	"cudele"
	"cudele/internal/model"
	"cudele/internal/namespace"
	wlgen "cudele/internal/workload"
)

const (
	simClients       = 16
	simPerClient     = 2_500  // creates per client per repetition
	simInterferePer  = 5      // interferer creates per private dir
	simSaturatedRate = 2470.0 // journal-on MDS peak (creates/s, virtual) used to place the interferer
)

// runSimStorm is the fig3b/fig6b shape: simulated clients create files in
// private directories through one journaling MDS while an interferer
// touches every directory. The calibrated model.Default() stays: the cost
// measured is host time to simulate the testbed.
func runSimStorm(ctx *runCtx, rep int, traced bool) (*repResult, error) {
	began := time.Now()
	res := newRepResult(rep, traced)
	seed := ctx.seed + int64(rep)
	rng := newRand(seed)

	perClient := ctx.scaled(simPerClient)
	perDir := ctx.scaled(simInterferePer)
	names := make([][]string, simClients)
	for i := range names {
		names[i] = (&nameGen{rng: rng}).list("f", perClient)
	}
	// The interferer arrives in the middle third of the job's expected
	// virtual duration. What a repetition costs depends on when, so the
	// third is cut into one slice per repetition and the seed picks the
	// moment within repetition rep's slice: every run covers the whole
	// third evenly, whatever its seed.
	expected := float64(simClients*perClient) / simSaturatedRate
	arrival := time.Duration(expected * (1 + (float64(rep)+rng.Float64())/float64(ctx.reps)) / 3 * float64(time.Second))
	issue := perClient
	if ctx.plant == plantSkipCreate {
		issue-- // client 0 issues one create less than the expectation holds
	}

	cfg := model.Default()
	cfg.DispatchSize = 40
	cl := cudele.NewCluster(cudele.WithSeed(seed), cudele.WithConfig(cfg))
	if cl.Backend() != cudele.BackendSim || cl.Objects().Store() != nil {
		return nil, checkErr("isolation", "sim_storm must run on the simulator with no FileStore")
	}
	cl.MDS().SetStream(true)
	clients := make([]*cudele.Client, simClients)
	for i := range clients {
		clients[i] = cl.NewClient(fmt.Sprintf("client.%d", i))
	}
	intruder := cl.NewClient("intruder")
	dirs := make([]namespace.Ino, simClients)
	var setupErr error
	cl.Run(func(p cudele.Proc) {
		for i, c := range clients {
			if dirs[i], setupErr = c.Mkdir(p, cudele.RootIno, fmt.Sprintf("dir%d", i), 0755); setupErr != nil {
				return
			}
		}
	})
	if setupErr != nil {
		return nil, fmt.Errorf("sim_storm setup: %w", setupErr)
	}

	recs := make([]*taskRec, simClients)
	for i := range recs {
		recs[i] = newTaskRec(clients[i].Name(), traced, perClient)
	}
	repSpan := res.phase("rep", "bench", -1)
	for _, rec := range recs {
		rec.parent = repSpan
	}
	var intruded, busy int
	mark := beginWindow()
	for i, c := range clients {
		i, c := i, c
		n := perClient
		if i == 0 {
			n = issue
		}
		cl.Go(c.Name(), func(p cudele.Proc) {
			rec, dir := recs[i], dirs[i]
			for _, name := range names[i][:n] {
				t0 := time.Now()
				_, err := c.Create(p, dir, name, 0644)
				rec.done(opCreate, true, t0, err)
			}
		})
	}
	cl.Go("intruder", func(p cudele.Proc) {
		p.Sleep(arrival)
		intruded, busy = wlgen.Interfere(p, intruder, dirs, perDir)
	})
	res.virtualS = cl.RunAll()
	res.win = mark.end()
	res.closePhase(repSpan)

	if err := res.absorb(recs...); err != nil {
		return nil, err
	}
	res.counts = readCounts(cl, append(clients, intruder))
	if intruded != simClients*perDir || busy != 0 {
		return nil, checkErr("entry-count", "interferer created %d (busy %d), want %d", intruded, busy, simClients*perDir)
	}
	st := cl.MDS().Store()
	for i := range clients {
		if err := checkDir(st, fmt.Sprintf("/dir%d", i), perClient+perDir, names[i]); err != nil {
			return nil, err
		}
	}
	if err := checkStores(cl); err != nil {
		return nil, err
	}
	if err := closeCluster(cl); err != nil {
		return nil, err
	}
	if traced && ctx.plant == plantPerturbVirtual {
		res.virtualS += 1e-9
	}
	finishRep(res, began)
	return res, nil
}
