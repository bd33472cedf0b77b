package mds

import (
	"fmt"
	"testing"

	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/realrt"
	"cudele/internal/runtime"
)

// fastJitterConfig is model.Default() with the service times cut to a
// nanosecond so a real-backend test finishes quickly, and the per-request
// jitter draw kept.
func fastJitterConfig() model.Config {
	cfg := model.Default()
	cfg.NetLatency = 0
	cfg.MDSOpTime, cfg.MDSLookupTime = 1, 1
	cfg.MDSSessionOverhead = 0
	cfg.MDSOpJitter = 0.08
	return cfg
}

// TestServiceTimeDrawsAcrossRanks has two ranks of a real-backend
// cluster serve requests at the same time, each in a directory placed on
// it. Each request draws its service-time jitter from its rank's domain
// source, which has no lock, so under -race this fails if two ranks
// share one source or a rank draws outside its domain.
func TestServiceTimeDrawsAcrossRanks(t *testing.T) {
	eng := realrt.New(1)
	cfg := fastJitterConfig()
	cl := NewCluster(eng, cfg, rados.New(eng, cfg), 2)
	const perRank = 2000
	for r := 0; r < cl.Ranks(); r++ {
		srv, path := cl.Rank(r), fmt.Sprintf("/r%d", r)
		dir, err := srv.Store().MkdirAll(path, namespace.CreateAttrs{Mode: 0755})
		if err != nil {
			t.Fatal(err)
		}
		cl.Table().Place(path, r)
		eng.Spawn(fmt.Sprintf("caller.%d", r), func(p runtime.Task) {
			for i := 0; i < perRank; i++ {
				rep := srv.Submit(p, &Request{Op: OpCreate, Client: "c", Parent: dir.Ino,
					Name: fmt.Sprintf("f%d", i), Mode: 0644})
				if rep.Err != nil {
					t.Errorf("rank %d create %d: %v", r, i, rep.Err)
					return
				}
			}
		})
	}
	eng.RunAll()
	if n := eng.Shutdown(); n != 0 {
		t.Fatalf("shutdown reaped %d tasks", n)
	}
	for r := 0; r < cl.Ranks(); r++ {
		if got := cl.Rank(r).Metrics().Requests; got != perRank {
			t.Errorf("rank %d served %d requests, want %d", r, got, perRank)
		}
	}
}
