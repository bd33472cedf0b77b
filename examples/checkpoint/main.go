// Checkpoint-restart (paper §V-B1): N clients each write a checkpoint of
// many files. Compare three subtree semantics living side by side in one
// namespace:
//
//   - /posix      strong consistency + global durability (RPCs + Stream)
//   - /batch      weak consistency + local durability (decoupled, merged)
//   - /scratch    invisible consistency + no durability (decoupled only)
//
// The decoupled subtrees finish orders of magnitude sooner — the paper's
// 91.7x headline — while POSIX applications keep their guarantees.
package main

import (
	"fmt"
	"log"

	"cudele"
)

const (
	clients      = 8
	filesPerRank = 10000
)

func runJob(mode string) float64 {
	cl := cudele.NewCluster(cudele.WithSeed(7))
	cl.MDS().SetStream(true)

	cs := make([]*cudele.Client, clients)
	for i := range cs {
		cs[i] = cl.NewClient(fmt.Sprintf("rank%02d", i))
	}
	eng := cl.Runtime()
	var jobSecs float64

	cl.Run(func(p cudele.Proc) {
		// Set up one subtree per rank under the mode's directory.
		for i, c := range cs {
			path := fmt.Sprintf("/%s/rank%02d", mode, i)
			if _, err := c.MkdirAll(p, path, 0755); err != nil {
				log.Fatalf("mkdir %s: %v", path, err)
			}
			if mode == "posix" {
				continue
			}
			pol := &cudele.Policy{
				Consistency:     cudele.ConsWeak,
				Durability:      cudele.DurLocal,
				AllocatedInodes: filesPerRank + 10,
			}
			if mode == "scratch" {
				pol.Consistency = cudele.ConsInvisible
				pol.Durability = cudele.DurNone
			}
			if _, err := cl.DecouplePolicy(p, c, path, pol); err != nil {
				log.Fatalf("decouple %s: %v", path, err)
			}
		}

		start := p.Now()
		done := make([]bool, clients)
		for i, c := range cs {
			i, c := i, c
			eng.Spawn(c.Name(), func(cp cudele.Proc) {
				defer func() { done[i] = true }()
				if mode == "posix" {
					dir, _ := c.Resolve(cp, fmt.Sprintf("/posix/rank%02d", i))
					for k := 0; k < filesPerRank; k++ {
						if _, err := c.Create(cp, dir, fmt.Sprintf("ckpt.%05d", k), 0644); err != nil {
							log.Fatalf("rank %d create: %v", i, err)
						}
					}
					return
				}
				root, _ := c.DecoupledRoot()
				for k := 0; k < filesPerRank; k++ {
					if _, err := c.LocalCreate(cp, root, fmt.Sprintf("ckpt.%05d", k), 0644); err != nil {
						log.Fatalf("rank %d local create: %v", i, err)
					}
				}
				if mode == "batch" {
					// Checkpoint complete: persist locally, then merge
					// so the scheduler can see it.
					if err := c.LocalPersist(cp); err != nil {
						log.Fatalf("rank %d persist: %v", i, err)
					}
					if _, _, err := c.Merge(cp); err != nil {
						log.Fatalf("rank %d merge: %v", i, err)
					}
				}
			})
		}
		// Wait for all ranks.
		for {
			all := true
			for _, d := range done {
				all = all && d
			}
			if all {
				break
			}
			p.Sleep(1e6)
		}
		jobSecs = (p.Now() - start).Seconds()
	})
	return jobSecs
}

func main() {
	fmt.Printf("checkpoint-restart: %d ranks x %d files\n\n", clients, filesPerRank)
	posix := runJob("posix")
	batch := runJob("batch")
	scratch := runJob("scratch")

	fmt.Printf("%-34s %10s %10s\n", "subtree semantics", "seconds", "speedup")
	fmt.Printf("%-34s %10.2f %10s\n", "POSIX (rpcs+stream)", posix, "1.0x")
	fmt.Printf("%-34s %10.2f %9.1fx\n", "BatchFS-style (create+merge)", batch, posix/batch)
	fmt.Printf("%-34s %10.2f %9.1fx\n", "scratch (decoupled create only)", scratch, posix/scratch)
	fmt.Println("\nall three co-exist in one global namespace; only the scratch")
	fmt.Println("subtree gives up recoverability (client failure loses updates).")
}
