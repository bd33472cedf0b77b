package bench

import (
	"fmt"

	"cudele"
	"cudele/internal/policy"
)

func init() {
	register("newcells", "Beyond Table I: speculative and strong-eventual cells vs the nine originals", NewCells)
}

// newCellsCons are the consistency levels the experiment sweeps: the
// paper's three columns plus the two cells beyond Table I.
var newCellsCons = []policy.Consistency{
	cudele.ConsInvisible, cudele.ConsWeak, cudele.ConsStrong,
	cudele.ConsSpeculative, cudele.ConsStrongEventual,
}

var newCellsDur = []policy.Durability{cudele.DurNone, cudele.DurLocal, cudele.DurGlobal}

// newCellsOut is one cell's measurements on both workloads.
type newCellsOut struct {
	burstSec float64 // validated-burst completion (s)
	burstRPC int     // per-op round trips the burst strategy paid
	stormSec float64 // lossy-merge-storm completion (s)
	stormRPC int     // per-op round trips the storm strategy paid
}

// newCellsSetup is a cell's first phase: it decouples /job under the
// cell's policy and mounts an interferer client. Strong cells decouple
// too: that is what arms the MDS journal stream for their durability
// levels.
func newCellsSetup(s *session, cons policy.Consistency, dur policy.Durability,
	inodes int) (c, intr *cudele.Client, job cudele.Ino, err error) {
	c = s.cl.NewClient("c0")
	intr = s.cl.NewClient("intr")
	_, err = s.phase("main", func(p cudele.Proc) error {
		var err error
		if job, err = c.MkdirAll(p, "/job", 0755); err != nil {
			return err
		}
		// Seed the object store for nonvolatile paths.
		if err := s.cl.MDS().SaveStore(p); err != nil {
			return err
		}
		_, err = s.cl.DecouplePolicy(p, c, "/job", &cudele.Policy{
			Consistency: cons, Durability: dur,
			AllocatedInodes: inodes, Interfere: cudele.InterfereAllow,
		})
		return err
	})
	return c, intr, job, err
}

// newCellsPersist runs the cell's client-journal durability mechanism —
// the step a journal cell pays before every merge. Strong cells persist
// through the MDS journal stream instead, priced into their RPCs.
func newCellsPersist(p cudele.Proc, c *cudele.Client, cons policy.Consistency,
	dur policy.Durability) error {
	if cons == cudele.ConsStrong {
		return nil
	}
	switch dur {
	case cudele.DurLocal:
		return c.LocalPersist(p)
	case cudele.DurGlobal:
		return c.GlobalPersist(p)
	}
	return nil
}

// newCellsBurst is the validated create burst: N creates into a
// directory where an interferer already owns every 10th name, and the
// client must finish knowing each op's outcome with the interferer's
// entries intact.
//
// Strong pays one round trip per create (rejections are synchronous).
// The blind-merge cells cannot learn outcomes from a merge — and a blind
// merge would clobber the interferer — so they pre-validate every name
// with a lookup round trip, then merge what is free. Speculative applies
// all N optimistically and ships one validated merge: the MDS rejects
// exactly the stolen names in the reply and the client rolls them back,
// with no per-op round trip and no quiescent-interferer assumption.
func newCellsBurst(opts Options, spec runSpec, cons policy.Consistency, dur policy.Durability,
	n int) (newCellsOut, error) {
	return runSession(opts, spec, func(s *session) (newCellsOut, error) {
		c, intr, job, err := newCellsSetup(s, cons, dur, n+16)
		if err != nil {
			return newCellsOut{}, err
		}
		name := func(i int) string { return fmt.Sprintf("f%05d", i) }
		var out newCellsOut
		_, err = s.phase("main", func(p cudele.Proc) error {
			for i := 0; i < n; i += 10 {
				if _, err := intr.Create(p, job, name(i), 0600); err != nil {
					return err
				}
			}
			start := p.Now()
			switch cons {
			case cudele.ConsStrong:
				for i := 0; i < n; i++ {
					out.burstRPC++ // a rejection is a round trip too
					if _, err := c.Create(p, job, name(i), 0644); err != nil && i%10 != 0 {
						return fmt.Errorf("burst: rpc create %s: %w", name(i), err)
					}
				}
			default:
				root, _ := c.DecoupledRoot()
				for i := 0; i < n; i++ {
					// The blind-merge cells pre-validate each name; the
					// speculative cell leaves that to the merge.
					if cons != cudele.ConsSpeculative {
						out.burstRPC++
						if _, err := c.Lookup(p, job, name(i)); err == nil {
							continue // taken by the interferer
						}
					}
					if _, err := c.LocalCreate(p, root, name(i), 0644); err != nil {
						return err
					}
				}
				if err := newCellsPersist(p, c, cons, dur); err != nil {
					return err
				}
				_, conflicts, err := c.Merge(p)
				if err != nil {
					return err
				}
				if cons == cudele.ConsSpeculative && len(conflicts) != (n+9)/10 {
					return fmt.Errorf("burst: %d conflicts, want %d", len(conflicts), (n+9)/10)
				}
			}
			out.burstSec = (p.Now() - start).Seconds()
			return nil
		})
		return out, err
	})
}

// newCellsStorm is the lossy merge storm: batches of creates whose merge
// acknowledgements are presumed lost, so before moving on the client
// must guarantee the batch landed exactly once.
//
// Strong retransmits every op (the retry's ErrExist is the idempotence
// check) — two round trips per op. The blind cells cannot re-send a
// batch (a second blind merge would double-apply), so they verify each
// op with a lookup round trip; speculative merges are validated but the
// verdict was in the lost reply, so they sweep too. Strong-eventual just
// retransmits the whole batch: converging merges are idempotent, so the
// re-send costs one more merge and zero per-op round trips.
func newCellsStorm(opts Options, spec runSpec, cons policy.Consistency, dur policy.Durability,
	batches, perBatch int) (newCellsOut, error) {
	return runSession(opts, spec, func(s *session) (newCellsOut, error) {
		c, _, job, err := newCellsSetup(s, cons, dur, batches*perBatch+16)
		if err != nil {
			return newCellsOut{}, err
		}
		evBytes := int64(s.cl.Config().JournalEventBytes)
		name := func(b, i int) string { return fmt.Sprintf("s%03d_%04d", b, i) }
		var out newCellsOut
		// verify is the per-op sweep a cell pays when it cannot re-send a
		// batch: one lookup round trip per name.
		verify := func(p cudele.Proc, b int) error {
			for i := 0; i < perBatch; i++ {
				out.stormRPC++
				if _, err := c.Lookup(p, job, name(b, i)); err != nil {
					return err
				}
			}
			return nil
		}
		_, err = s.phase("main", func(p cudele.Proc) error {
			start := p.Now()
			for b := 0; b < batches; b++ {
				if cons == cudele.ConsStrong {
					for i := 0; i < perBatch; i++ {
						if _, err := c.Create(p, job, name(b, i), 0644); err != nil {
							return err
						}
						out.stormRPC++
						if _, err := c.Create(p, job, name(b, i), 0644); err == nil {
							return fmt.Errorf("storm: retransmitted create did not reject")
						}
						out.stormRPC++
					}
					continue
				}
				root, _ := c.DecoupledRoot()
				for i := 0; i < perBatch; i++ {
					if _, err := c.LocalCreate(p, root, name(b, i), 0644); err != nil {
						return err
					}
				}
				if err := newCellsPersist(p, c, cons, dur); err != nil {
					return err
				}
				evs, err := c.JournalEvents()
				if err != nil {
					return err
				}
				if _, _, err := c.Merge(p); err != nil {
					return err
				}
				if cons == cudele.ConsStrongEventual {
					// The retransmit: replaying the same batch through the
					// resolver is a no-op on the image.
					if _, err := s.cl.MDS().ConvergeApply(p, evs, int64(len(evs))*evBytes); err != nil {
						return err
					}
				} else if err := verify(p, b); err != nil {
					return err
				}
			}
			out.stormSec = (p.Now() - start).Seconds()
			return nil
		})
		return out, err
	})
}

// NewCells prices the two cells beyond Table I against all nine original
// compositions on the two workloads each was built for: the validated
// create burst (speculation removes the per-op round trip every original
// cell needs to learn op outcomes under interference) and the lossy
// merge storm (strong-eventual retransmits blindly where every original
// cell pays a per-op verification or retransmission round trip).
func NewCells(opts Options) (*Result, error) {
	// The floors pin the workloads at full size: the contract the
	// baseline carries — each new cell beats every original on one
	// workload — needs enough ops to amortize a merge's fixed cost
	// (at a few dozen ops per batch the strong-eventual retransmit
	// merge costs more than the lookups it avoids). The full sweep
	// still completes in well under a second of wall clock.
	burstN := opts.scaled(2_000, 2_000)
	batches := 8
	perBatch := opts.scaled(250, 250)

	// Each cell is two runs, burst then storm, adjacent in the grid.
	perRow := len(newCellsDur)
	runs, err := runGrid(opts, "newcells", 2*len(newCellsCons)*perRow, func(i int, run runSpec) (newCellsOut, error) {
		cons, dur := newCellsCons[i/2/perRow], newCellsDur[i/2%perRow]
		if i%2 == 0 {
			return newCellsBurst(opts, run, cons, dur, burstN)
		}
		return newCellsStorm(opts, run, cons, dur, batches, perBatch)
	})
	if err != nil {
		return nil, err
	}
	outs := make([]newCellsOut, len(runs)/2)
	for i := range outs {
		outs[i] = runs[2*i]
		outs[i].stormSec, outs[i].stormRPC = runs[2*i+1].stormSec, runs[2*i+1].stormRPC
	}

	r := &Result{
		ID: "newcells",
		Title: fmt.Sprintf("Beyond Table I: %d-create validated burst (1/10 contended) and %dx%d lossy merge storm",
			burstN, batches, perBatch),
		Columns: []string{"cell", "burst (s)", "burst rpc", "storm (s)", "storm rpc"},
	}
	cell := func(i int) string {
		return newCellsCons[i/perRow].String() + "/" + newCellsDur[i%perRow].String()
	}
	bestBurst, bestStorm := -1, -1
	for i := range outs {
		r.AddRow(cell(i), f2(outs[i].burstSec), fmt.Sprintf("%d", outs[i].burstRPC),
			f2(outs[i].stormSec), fmt.Sprintf("%d", outs[i].stormRPC))
		switch newCellsCons[i/perRow] {
		case cudele.ConsInvisible, cudele.ConsWeak, cudele.ConsStrong:
			if bestBurst < 0 || outs[i].burstSec < outs[bestBurst].burstSec {
				bestBurst = i
			}
			if bestStorm < 0 || outs[i].stormSec < outs[bestStorm].stormSec {
				bestStorm = i
			}
		}
	}
	for i := range outs {
		cons, dur := newCellsCons[i/perRow], newCellsDur[i%perRow]
		if cons == cudele.ConsSpeculative {
			r.Notef("%v/%v finishes the validated burst %.1fx faster than the best Table I cell (%.2f s vs %s's %.2f s): one validated merge replaces %d per-op round trips",
				cons, dur, outs[bestBurst].burstSec/outs[i].burstSec,
				outs[i].burstSec, cell(bestBurst), outs[bestBurst].burstSec, outs[bestBurst].burstRPC)
		}
		if cons == cudele.ConsStrongEventual {
			r.Notef("%v/%v finishes the lossy storm %.1fx faster than the best Table I cell (%.2f s vs %s's %.2f s): idempotent re-merge replaces %d per-op round trips",
				cons, dur, outs[bestStorm].stormSec/outs[i].stormSec,
				outs[i].stormSec, cell(bestStorm), outs[bestStorm].stormSec, outs[bestStorm].stormRPC)
		}
	}
	return r, nil
}
