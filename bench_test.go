package cudele_test

import (
	"fmt"
	"testing"
	"time"

	"cudele"
	"cudele/internal/bench"
)

// Each table and figure of the paper's evaluation has a benchmark that
// regenerates it end to end through the experiment harness. Benchmarks run
// at a reduced scale so `go test -bench=.` finishes quickly; run
// `cudele-bench -scale 1.0` for paper-scale numbers. The reported
// "virt-s" metric is the virtual (simulated) time the experiment's
// workloads spanned; wall-clock ns/op measures the simulator itself.

func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(id, bench.Options{Scale: scale, Seed: int64(i + 1)})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s: empty result", id)
		}
	}
}

// BenchmarkTable1Compositions regenerates Table I (the policy spectrum).
func BenchmarkTable1Compositions(b *testing.B) { benchExperiment(b, "table1", 1) }

// BenchmarkFig2CompilePhases regenerates Figure 2 (per-phase MDS load).
func BenchmarkFig2CompilePhases(b *testing.B) { benchExperiment(b, "fig2", 0.05) }

// BenchmarkFig3aJournalDispatch regenerates Figure 3a (journal dispatch
// sizes vs clients).
func BenchmarkFig3aJournalDispatch(b *testing.B) { benchExperiment(b, "fig3a", 0.01) }

// BenchmarkFig3bInterference regenerates Figure 3b (interference
// slowdown/variability).
func BenchmarkFig3bInterference(b *testing.B) { benchExperiment(b, "fig3b", 0.005) }

// BenchmarkFig3cLookupRPCs regenerates Figure 3c (lookup RPCs appearing
// after capability revocation).
func BenchmarkFig3cLookupRPCs(b *testing.B) { benchExperiment(b, "fig3c", 0.01) }

// BenchmarkFig5Mechanisms regenerates Figure 5 (per-mechanism overheads).
func BenchmarkFig5Mechanisms(b *testing.B) { benchExperiment(b, "fig5", 0.02) }

// BenchmarkFig6aParallelCreates regenerates Figure 6a (decoupled
// namespaces vs RPCs).
func BenchmarkFig6aParallelCreates(b *testing.B) { benchExperiment(b, "fig6a", 0.01) }

// BenchmarkFig6bBlockInterference regenerates Figure 6b (the
// interfere-block API).
func BenchmarkFig6bBlockInterference(b *testing.B) { benchExperiment(b, "fig6b", 0.005) }

// BenchmarkFig6cNamespaceSync regenerates Figure 6c (namespace-sync
// interval sweep).
func BenchmarkFig6cNamespaceSync(b *testing.B) { benchExperiment(b, "fig6c", 0.02) }

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationInodeCache quantifies the inode cache / capability
// path: creates with a cached directory inode cost one RPC; without it
// every create pays an extra lookup RPC (paper §IV-C).
func BenchmarkAblationInodeCache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			var virt float64
			for i := 0; i < b.N; i++ {
				cl := cudele.NewCluster(cudele.WithSeed(int64(i + 1)))
				c := cl.NewClient("c0")
				interferer := cl.NewClient("intruder")
				virt += cl.Run(func(p cudele.Proc) {
					dir, _ := c.Mkdir(p, cudele.RootIno, "d", 0755)
					if !cached {
						// Force the shared regime: one interfering
						// create revokes the cap for good.
						c.Create(p, dir, "seed", 0644)
						interferer.Create(p, dir, "intruder", 0644)
						c.Create(p, dir, "post", 0644)
					}
					for k := 0; k < 500; k++ {
						c.Create(p, dir, fmt.Sprintf("f%d", k), 0644)
					}
				})
			}
			b.ReportMetric(virt/float64(b.N), "virt-s")
		})
	}
}

// BenchmarkAblationMergeArrival quantifies the paper's note that Fig 6a's
// create+merge curve is pessimistic because all client journals land on
// the metadata server at the same time (§V-B1). Staggering client start
// times spreads the journal arrivals, avoiding merge congestion.
func BenchmarkAblationMergeArrival(b *testing.B) {
	const clients = 20
	const perClient = 2000
	run := func(b *testing.B, stagger time.Duration) {
		var virt float64
		for i := 0; i < b.N; i++ {
			cl := cudele.NewCluster(cudele.WithSeed(int64(i + 1)))
			cs := make([]*cudele.Client, clients)
			for k := range cs {
				cs[k] = cl.NewClient(fmt.Sprintf("c%d", k))
			}
			eng := cl.Runtime()
			virt += cl.Run(func(p cudele.Proc) {
				for k, c := range cs {
					path := fmt.Sprintf("/j%d", k)
					c.MkdirAll(p, path, 0755)
					cl.DecouplePolicy(p, c, path, &cudele.Policy{
						Consistency: cudele.ConsWeak, Durability: cudele.DurNone,
						AllocatedInodes: perClient + 10,
					})
				}
				for k, c := range cs {
					k, c := k, c
					eng.Spawn(c.Name(), func(cp cudele.Proc) {
						cp.Sleep(time.Duration(k) * stagger)
						root, _ := c.DecoupledRoot()
						for f := 0; f < perClient; f++ {
							c.LocalCreate(cp, root, fmt.Sprintf("f%d", f), 0644)
						}
						c.Merge(cp)
					})
				}
			})
		}
		b.ReportMetric(virt/float64(b.N), "virt-s")
	}
	b.Run("simultaneous", func(b *testing.B) { run(b, 0) })
	b.Run("staggered", func(b *testing.B) { run(b, 250*time.Millisecond) })
}

// BenchmarkAblationDispatchSize sweeps the journal dispatch tunable in
// isolation at a fixed load (the knob behind Fig 3a).
func BenchmarkAblationDispatchSize(b *testing.B) {
	for _, dispatch := range []int{1, 10, 30, 40} {
		b.Run(fmt.Sprintf("dispatch%d", dispatch), func(b *testing.B) {
			var virt float64
			for i := 0; i < b.N; i++ {
				cfg := cudele.DefaultConfig()
				cfg.DispatchSize = dispatch
				cfg.SegmentEvents = 64
				cl := cudele.NewCluster(cudele.WithSeed(int64(i+1)), cudele.WithConfig(cfg))
				cl.MDS().SetStream(true)
				cs := make([]*cudele.Client, 8)
				for k := range cs {
					cs[k] = cl.NewClient(fmt.Sprintf("c%d", k))
				}
				eng := cl.Runtime()
				virt += cl.Run(func(p cudele.Proc) {
					for k, c := range cs {
						k, c := k, c
						dir, _ := c.Mkdir(p, cudele.RootIno, fmt.Sprintf("d%d", k), 0755)
						eng.Spawn(c.Name(), func(cp cudele.Proc) {
							for f := 0; f < 500; f++ {
								c.Create(cp, dir, fmt.Sprintf("f%d", f), 0644)
							}
						})
					}
				})
			}
			b.ReportMetric(virt/float64(b.N), "virt-s")
		})
	}
}
