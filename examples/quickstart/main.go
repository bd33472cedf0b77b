// Quickstart: build a cluster, use POSIX-style RPCs, decouple a subtree
// with a policies file, work locally, and merge back — the whole Cudele
// lifecycle in one file.
package main

import (
	"fmt"
	"log"

	"cudele"
)

func main() {
	// A cluster is 1 monitor, 1 metadata server, 3 OSDs on a
	// deterministic virtual clock.
	cl := cudele.NewCluster(cudele.WithSeed(42))
	c := cl.NewClient("client.0")

	elapsed := cl.Run(func(p cudele.Proc) {
		// 1. Plain POSIX-style metadata ops over RPCs (strong
		// consistency, every op is a round trip to the MDS).
		dir, err := c.MkdirAll(p, "/home/alice/job", 0755)
		if err != nil {
			log.Fatalf("mkdir: %v", err)
		}
		if _, err := c.Create(p, dir, "input.txt", 0644); err != nil {
			log.Fatalf("create: %v", err)
		}
		fmt.Printf("[%8.3fs] created /home/alice/job/input.txt over RPCs\n", p.Now().Seconds())

		// 2. Decouple the subtree with a policies file (paper §III-C):
		// weak consistency + local durability is the BatchFS cell of
		// Table I.
		entry, err := cl.Decouple(p, c, "/home/alice/job", `
consistency: weak
durability: local
allocated_inodes: 10000
interfere: block
`)
		if err != nil {
			log.Fatalf("decouple: %v", err)
		}
		comp, _ := entry.Policy.Composition()
		fmt.Printf("[%8.3fs] decoupled %s -> %s (inode grant [%d,+%d))\n",
			p.Now().Seconds(), entry.Path, comp, entry.Policy.GrantLo, entry.Policy.GrantN)

		// 3. Work locally at memory speed: ~11,000 creates/s instead of
		// ~650/s, no RPCs at all.
		root, _ := c.DecoupledRoot()
		start := p.Now()
		for i := 0; i < 5000; i++ {
			if _, err := c.LocalCreate(p, root, fmt.Sprintf("ckpt.%04d", i), 0644); err != nil {
				log.Fatalf("local create: %v", err)
			}
		}
		rate := 5000 / (p.Now() - start).Seconds()
		fmt.Printf("[%8.3fs] 5000 decoupled creates at %.0f creates/s\n", p.Now().Seconds(), rate)

		// 4. Run the policy's mechanism composition: persist the
		// journal to local disk, then merge it into the global
		// namespace (Volatile Apply).
		if err := c.RunComposition(p, comp); err != nil {
			log.Fatalf("composition: %v", err)
		}
		fmt.Printf("[%8.3fs] journal persisted locally and merged\n", p.Now().Seconds())

		// 5. Everyone sees the results in the global namespace now.
		names, err := c.ReadDir(p, dir)
		if err != nil {
			log.Fatalf("readdir: %v", err)
		}
		fmt.Printf("[%8.3fs] /home/alice/job has %d entries (first: %s)\n",
			p.Now().Seconds(), len(names), names[0])
	})
	fmt.Printf("done in %.3f virtual seconds\n", elapsed)
}
