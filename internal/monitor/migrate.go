package monitor

import (
	"fmt"

	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// A subtree changes hands one way: the handoff below, which an online
// migration (Migrate) and a placement onto another rank (Place) both
// run; a registration never moves its subtree. The protocol
// (mds/migrate.go holds the rank side):
//
//	freeze (src)  → save (src, durable)  → open (dst, admission)
//	→ chunk loop: read (src) / chunk (dst, windowed)
//	→ import commit (dst)  → export commit (src, journaled record, prune)
//	→ epoch++ / table flip (monitor)
//
// Routing changes only at the flip — that is the linearization point. A
// failure anywhere before the export-commit record lands aborts both
// sides: the source thaws and stays authoritative; the destination keeps
// whatever it installed as an unreachable stale copy, exactly like a
// crash before the flip. Either way one rank owns the subtree, and a
// rank serves only what the table says it owns (mds.Server.bounce).

// Migrate moves ownership of the subtree at path to rank dst online:
// clients keep operating (requests into the frozen subtree bounce with a
// redirect) and every update acknowledged before the freeze is durable
// on both sides before ownership flips. Migrating a subtree onto its
// current owner is a no-op. A file is refused (namespace.ErrNotDir). A
// refused freeze (merges in flight) or any mid-stream failure aborts the
// migration, leaving the source authoritative; the caller may retry
// later.
func (m *Monitor) Migrate(p runtime.Task, path string, dst int) error {
	m.enter(p, "migrate")
	defer m.leave(p)
	if err := m.checkRank("migrate", path, dst); err != nil {
		return err
	}
	srcRank := m.cl.Table().RankFor(path)
	if srcRank == dst {
		return nil
	}
	return m.handoff(p, path, srcRank, dst, true)
}

// checkRank refuses a rank the cluster does not have.
func (m *Monitor) checkRank(op, path string, rank int) error {
	if rank < 0 || rank >= m.cl.Ranks() {
		return fmt.Errorf("monitor: %s %s: rank %d out of range [0,%d)", op, path, rank, m.cl.Ranks())
	}
	return nil
}

// handoff moves the subtree at path from its owner, rank srcRank, to rank
// dst: freeze, save, stream, import commit, export-commit record and
// prune, then one commit latency, one epoch and the table flip. The
// caller holds the monitor's domain and has checked that dst is another
// rank of the cluster.
//
// The handoff saves the frozen image and writes the record when durable
// is set or the freeze's manifest says the source's journal holds
// events its last save did not write (mds.ExportManifest.Unsaved): that
// journal may hold pre-freeze acks, and it does not move. Migrate always
// sets durable: the chaos oracle takes the save as the point where every
// pre-freeze ack is durable on both sides, in every cell. Otherwise the
// source has made nothing durable since its last save, whose objects
// stay in the pool for whichever rank recovers, so the handoff writes
// nothing to the object store and keeps the subtree exactly as durable
// as it was.
func (m *Monitor) handoff(p runtime.Task, path string, srcRank, dst int, durable bool) error {
	src, dstEp := m.cl.Rank(srcRank), m.cl.Rank(dst)
	retry := m.cl.Config().MigrateRetryDelay
	st := m.record(path)
	if st.State != SubtreeOwned {
		// One handoff per subtree at a time. The rank-side freeze check
		// cannot enforce this alone: it yields before it marks the
		// subtree frozen, so a second migration could slip through and
		// its abort would thaw the first one's pruned source.
		return fmt.Errorf("monitor: migrate %s to rank %d: subtree is %v: %w",
			path, dst, st.State, namespace.ErrBusy)
	}

	abort := func(importID uint64, cause error) error {
		if importID != 0 {
			dstEp.Post(p, &mds.ImportAbortMsg{ID: importID})
		}
		src.Post(p, &mds.ExportAbortMsg{Path: path})
		st.State = SubtreeOwned
		if rec := m.eng.Tracer(); rec != nil {
			rec.Record(int64(p.Now()), "monitor", "monitor", "migrate.abort",
				fmt.Sprintf("%s rank %d -> %d: %v", path, srcRank, dst, cause))
		}
		return fmt.Errorf("monitor: migrate %s to rank %d: %w", path, dst, cause)
	}

	// 1. Freeze the subtree on the owner and collect its manifest.
	st.State = SubtreeExporting
	fr := src.Post(p, &mds.ExportFreezeMsg{Path: path}).(*mds.ExportFreezeReply)
	if fr.Err != nil {
		st.State = SubtreeOwned
		return fmt.Errorf("monitor: migrate %s to rank %d: %w", path, dst, fr.Err)
	}
	durable = durable || fr.Manifest.Unsaved

	// 2. Make the frozen image durable: after this, pre-freeze acks
	// survive a crash of either rank.
	if durable {
		if sv := src.Post(p, &mds.ExportSaveMsg{Path: path}).(*mds.ExportSaveReply); sv.Err != nil {
			return abort(0, sv.Err)
		}
	}

	// 3. Open the import session (bounded admission on the destination).
	or := transport.SendWindowed(p, dstEp,
		&mds.ImportOpenMsg{Path: path}, retry).(*mds.ImportOpenReply)
	if or.Err != nil {
		return abort(0, or.Err)
	}

	// 4. Stream the directory objects, windowed. An empty subtree still
	// ships one (empty, final) chunk so the installer retires the job.
	for chunk := 0; ; chunk++ {
		rr := src.Post(p, &mds.ExportReadMsg{Path: path, Chunk: chunk}).(*mds.ExportReadReply)
		if rr.Err != nil {
			return abort(or.ID, rr.Err)
		}
		cm := &mds.ImportChunkMsg{Path: path, Objs: rr.Objs}
		cm.ID, cm.Seq, cm.Items, cm.Last = or.ID, chunk, len(rr.Objs), rr.Last
		for _, o := range rr.Objs {
			cm.Bytes += int64(len(o))
		}
		cr := transport.SendWindowed(p, dstEp, cm, retry).(*mds.ImportChunkReply)
		if cr.Err != nil {
			return abort(or.ID, cr.Err)
		}
		if rr.Last {
			break
		}
	}

	// 5. The destination adopts every registration the manifest lists.
	// Routing still points at the source.
	ic := dstEp.Post(p, &mds.ImportCommitMsg{ID: or.ID, Manifest: fr.Manifest}).(*mds.ImportCommitReply)
	if ic.Err != nil {
		return abort(or.ID, ic.Err)
	}

	// 6. Source writes the journaled export-commit record and prunes. A
	// failed (or torn) record leaves the source frozen and intact; abort
	// restores service there and strands a harmless copy on dst.
	var seq uint64 // 0: no record
	if durable {
		m.migSeq++
		seq = m.migSeq
	}
	ec := src.Post(p, &mds.ExportCommitMsg{Path: path, Seq: seq, Dst: dst}).(*mds.ExportCommitReply)
	if ec.Err != nil {
		return abort(or.ID, ec.Err)
	}

	// 7. Flip the routing table: the linearization point.
	p.Sleep(commitLatency)
	m.epoch++
	m.cl.CommitMigration(path, srcRank, dst)
	m.placed(path)
	st.Moves++
	// Thaw the source last: its freeze outlived the prune so that
	// requests arriving before the flip bounced as Frozen instead of
	// being served ErrNotExist from the pruned store.
	src.Post(p, &mds.ExportAbortMsg{Path: path})
	if rec := m.eng.Tracer(); rec != nil {
		rec.Record(int64(p.Now()), "monitor", "monitor", "migrate.commit",
			fmt.Sprintf("%s rank %d -> %d seq=%d epoch=%d dirs=%d",
				path, srcRank, dst, seq, m.epoch, fr.Manifest.Dirs))
	}
	return nil
}
