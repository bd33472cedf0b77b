package mds

import (
	"errors"
	"fmt"

	"cudele/internal/journal"
	"cudele/internal/runtime"
)

// Merging a decoupled client's journal is one delivery loop with a
// per-event step that depends on the consistency cell (paper §III-A, and
// the two cells beyond Table I): blind apply, validate-then-apply, or
// CRDT resolve. Two arrival models feed the loop — the whole journal in
// one MergeMsg (below, the model Fig 6a was calibrated against) or
// admitted, windowed chunks (scheduler.go) — and both go through
// applyRun, so every merge is priced by the same cost model: network
// transfer, merge-queue congestion, run-at-a-time CPU.

// applyRunLen bounds how many events a one-shot merge applies per CPU
// acquisition, so bulk merges do not starve RPC traffic forever while
// keeping simulation overhead low.
const applyRunLen = 256

// eventSource is where a one-shot merge pulls its events from: either a
// journal.Cursor (bounded-memory iteration over a live journal) or a
// flat slice that arrived in the message. Runs are exactly
// min(max, Remaining()) long either way, so the merge's CPU schedule is
// independent of the source.
type eventSource interface {
	Remaining() int
	Next(max int) []*journal.Event
}

// sliceSource adapts a flat event slice to the eventSource contract.
type sliceSource struct {
	evs []*journal.Event
	off int
}

func (s *sliceSource) Remaining() int { return len(s.evs) - s.off }

func (s *sliceSource) Next(max int) []*journal.Event {
	end := min(s.off+max, len(s.evs))
	out := s.evs[s.off:end]
	s.off = end
	return out
}

// errConflict is the validating step's verdict on a falsified
// prediction: the event is skipped and its index reported, not a failure.
var errConflict = errors.New("mds: speculative prediction conflicts")

// validated is the speculative merge step: an event applies only if its
// prediction still holds against the live global view.
type validated struct{ s *Server }

func (v validated) ApplyEvent(ev *journal.Event) error {
	if !v.s.speculativeValidate(ev) {
		return errConflict
	}
	return v.s.store.ApplyEvent(ev)
}

// mergeStep returns the per-event step for mode. Blind replay resolves
// conflicting creates in favor of the decoupled namespace (interfere
// "allow" semantics); the converge step absorbs tie-break losers, so
// every event counts as applied regardless of race outcomes.
func (s *Server) mergeStep(mode MergeMode) journal.Target {
	switch mode {
	case MergeSpeculative:
		return validated{s}
	case MergeConverge:
		return s.seMerger()
	}
	return s.store
}

// applyRun is the one place merged events meet the metadata store: it
// prices the run at the current merge concurrency, holds the rank's CPU
// for that long, then steps through the events, accumulating the applied
// count, rejected indices (base is the run's offset in its journal) and
// first error into r. The step is resolved after the last yield, so a
// Crash mid-merge is seen by the very next event.
func (s *Server) applyRun(p runtime.Task, mode MergeMode, run []*journal.Event, base int, r *MergeReply) {
	per := s.mergeApplyCost()
	s.cpu.Acquire(p)
	defer s.cpu.Release()
	p.Sleep(per * runtime.Duration(len(run)))
	step := s.mergeStep(mode)
	for i, ev := range run {
		switch err := step.ApplyEvent(ev); err {
		case nil:
			r.Applied++
			s.metrics.Merged++
		case errConflict:
			r.Conflicts = append(r.Conflicts, base+i)
			s.metrics.MergeConflicts++
		default:
			r.Err = fmt.Errorf("merge apply: %w", err)
			return
		}
	}
}

// mergeOneShot is the MergeMsg handler body for all three modes. The
// whole journal crosses the fabric in a single transfer and the job stays
// active — inflating every concurrent merge's per-event cost — until its
// last event applies. Nothing is durable until a separate durability
// mechanism runs.
func (s *Server) mergeOneShot(p runtime.Task, m *MergeMsg) *MergeReply {
	if s.stopped {
		return &MergeReply{Err: ErrShutdown}
	}
	s.mergeQueue++
	defer func() { s.mergeQueue-- }()

	// Ship the journal to the MDS. The network hop is charged against
	// the shared fabric; concurrent merges queue on it.
	p.Sleep(s.cfg.NetLatency)
	if m.NominalBytes > 0 {
		s.obj.Net().Transfer(p, m.NominalBytes)
	}

	// Session/inode-range validation before replay.
	s.cpu.Use(p, s.cfg.MDSMergeSetup)
	s.metrics.MergeJobs++

	var src eventSource = &sliceSource{evs: m.Events}
	if m.Events == nil && m.Source != nil {
		src = m.Source
	}
	r := &MergeReply{}
	for base := 0; r.Err == nil && src.Remaining() > 0; {
		run := src.Next(applyRunLen)
		s.applyRun(p, m.Mode, run, base, r)
		base += len(run)
	}
	if s.heat != nil && r.Applied > 0 {
		s.heat.RecordMerge(int64(p.Now()), s.heatSubtree(m.Route), s.rank, r.Applied, m.NominalBytes)
	}
	return r
}

// mergeApplyCost is the per-event merge CPU cost at the current merge
// concurrency: it grows with the number of journals waiting to merge, so
// 20 journals landing at once congest the MDS (paper Fig 6a). One-shot
// and streamed merges share it — and share mergeQueue — so mixing
// arrival models keeps the congestion economics consistent.
func (s *Server) mergeApplyCost() runtime.Duration {
	return runtime.Duration(float64(s.cfg.MDSApplyTime) *
		(1 + float64(s.mergeQueue-1)*s.cfg.MDSMergeCongestion))
}

// MergeQueue reports the number of in-flight merge jobs, one-shot and
// streamed combined.
func (s *Server) MergeQueue() int { return s.mergeQueue }

// VolatileApply, SpeculativeApply and ConvergeApply post a one-shot merge
// of events to this rank's own endpoint, blocking the caller until it
// completes. nominalBytes is the journal's transfer footprint (events x
// ~2.5 KB). SpeculativeApply also returns the indices of the rejected
// predictions.
func (s *Server) VolatileApply(p runtime.Task, events []*journal.Event, nominalBytes int64) (int, error) {
	r := s.postMerge(p, events, nominalBytes, MergeBlind)
	return r.Applied, r.Err
}

func (s *Server) SpeculativeApply(p runtime.Task, events []*journal.Event, nominalBytes int64) (int, []int, error) {
	r := s.postMerge(p, events, nominalBytes, MergeSpeculative)
	return r.Applied, r.Conflicts, r.Err
}

func (s *Server) ConvergeApply(p runtime.Task, events []*journal.Event, nominalBytes int64) (int, error) {
	r := s.postMerge(p, events, nominalBytes, MergeConverge)
	return r.Applied, r.Err
}

func (s *Server) postMerge(p runtime.Task, events []*journal.Event, nominalBytes int64, mode MergeMode) *MergeReply {
	return s.ep.Post(p, &MergeMsg{Events: events, NominalBytes: nominalBytes, Mode: mode}).(*MergeReply)
}
