package monitor

import (
	"fmt"
	"time"

	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// Online subtree migration, orchestrated by the monitor. The protocol
// (mds/migrate.go holds the rank side):
//
//	freeze (src)  → save (src, durable)  → open (dst, admission)
//	→ chunk loop: read (src) / chunk (dst, windowed)
//	→ import commit (dst)  → export commit (src, journaled record)
//	→ epoch++ / publish (monitor)
//
// Routing changes only at publish — that is the linearization point. A
// failure anywhere before the export-commit record lands aborts both
// sides: the source thaws and stays authoritative; the destination keeps
// whatever it installed as an unreachable stale copy, exactly like a
// pre-publish crash.

// migrateRetryDelay is the backoff for windowed sends during migration.
func (m *Monitor) migrateRetryDelay() runtime.Duration {
	if d := m.cl.Config().MigrateRetryDelay; d > 0 {
		return d
	}
	return 2 * time.Millisecond
}

// Migrate moves ownership of the subtree at path to rank dst online:
// clients keep operating (requests into the frozen subtree bounce with a
// redirect) and every update acknowledged before the freeze is durable
// on both sides before ownership flips. Migrating a subtree onto its
// current owner is a no-op. A refused freeze (merges in flight) or any
// mid-stream failure aborts the migration, leaving the source
// authoritative; the caller may retry later.
func (m *Monitor) Migrate(p runtime.Task, path string, dst int) error {
	m.dom.Enter(p)
	defer m.dom.Leave(p)
	if dst < 0 || dst >= m.cl.Ranks() {
		return fmt.Errorf("monitor: migrate %s: rank %d out of range [0,%d)",
			path, dst, m.cl.Ranks())
	}
	srcRank := m.cl.Table().RankFor(path)
	if srcRank == dst {
		return nil
	}
	src := m.cl.Rank(srcRank).Endpoint()
	dstEp := m.cl.Rank(dst).Endpoint()
	retry := m.migrateRetryDelay()
	st := m.cl.SubtreeFor(path)
	if st.State != mds.SubtreeOwned {
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
		st.State = mds.SubtreeOwned
		if fl := m.eng.Flight(); fl != nil {
			fl.Record(int64(p.Now()), "monitor", "monitor", "migrate.abort",
				fmt.Sprintf("%s rank %d -> %d: %v", path, srcRank, dst, cause))
		}
		return fmt.Errorf("monitor: migrate %s to rank %d: %w", path, dst, cause)
	}

	// 1. Freeze the subtree on the owner and collect its manifest.
	st.State = mds.SubtreeExporting
	fr := src.Post(p, &mds.ExportFreezeMsg{Path: path}).(*mds.ExportFreezeReply)
	if fr.Err != nil {
		st.State = mds.SubtreeOwned
		return fmt.Errorf("monitor: migrate %s to rank %d: %w", path, dst, fr.Err)
	}

	// 2. Make the frozen image durable: after this, pre-freeze acks
	// survive a crash of either rank.
	if sv := src.Post(p, &mds.ExportSaveMsg{Path: path}).(*mds.ExportSaveReply); sv.Err != nil {
		return abort(0, sv.Err)
	}

	// 3. Open the import session (bounded admission on the destination).
	or := transport.SendWindowed(p, dstEp,
		&mds.ImportOpenMsg{Path: path, TotalDirs: fr.Manifest.Dirs}, retry).(*mds.ImportOpenReply)
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

	// 5. Destination adopts the subtree's policy, owner, grant, and
	// journal tail. Routing still points at the source. The source rank
	// knows who owns a decoupled subtree but not which inode range that
	// client was granted; the registry does, and the importer's allocator
	// must reserve the range the client still draws from.
	if e, ok := m.subtrees[path]; ok {
		fr.Manifest.GrantLo, fr.Manifest.GrantN = e.GrantLo, e.GrantN
	}
	st.State = mds.SubtreeImporting
	ic := dstEp.Post(p, &mds.ImportCommitMsg{ID: or.ID, Manifest: fr.Manifest}).(*mds.ImportCommitReply)
	if ic.Err != nil {
		return abort(or.ID, ic.Err)
	}

	// 6. Source writes the journaled export-commit record and prunes. A
	// failed (or torn) record leaves the source frozen and intact; abort
	// restores service there and strands a harmless copy on dst.
	m.migSeq++
	ec := src.Post(p, &mds.ExportCommitMsg{Path: path, Seq: m.migSeq, Dst: dst}).(*mds.ExportCommitReply)
	if ec.Err != nil {
		return abort(or.ID, ec.Err)
	}

	// 7. Publish the new map: the routing linearization point.
	p.Sleep(commitLatency)
	m.epoch++
	m.cl.CommitMigration(path, dst, m.epoch)
	if e, ok := m.subtrees[path]; ok {
		e.Rank, e.Epoch = dst, m.epoch
	}
	m.publish()
	// Thaw the source last: its freeze outlived the prune so that
	// requests arriving before the publish bounced as Frozen instead of
	// being served ErrNotExist from the pruned store.
	src.Post(p, &mds.ExportAbortMsg{Path: path})
	if fl := m.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), "monitor", "monitor", "migrate.commit",
			fmt.Sprintf("%s rank %d -> %d seq=%d epoch=%d dirs=%d",
				path, srcRank, dst, m.migSeq, m.epoch, fr.Manifest.Dirs))
	}
	return nil
}

// Reattach re-installs a registered subtree's policy, owner, and exact
// inode grant on its current owning rank — the recovery path after that
// rank restarted and lost its volatile registrations. The grant the
// client already holds stays valid.
func (m *Monitor) Reattach(p runtime.Task, path string) error {
	m.dom.Enter(p)
	defer m.dom.Leave(p)
	e, ok := m.subtrees[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSubtree, path)
	}
	rank := m.cl.Table().RankFor(path)
	return m.cl.Rank(rank).Attach(p, path, e.Policy, e.Owner, e.GrantLo, e.GrantN)
}

// SplitDir fragments the directory at dir across the given ranks: each
// rank receives a full replica of the subtree, then dentry-hash routing
// spreads its children. One cluster-map change, like any placement.
func (m *Monitor) SplitDir(p runtime.Task, dir string, ranks []int) error {
	m.dom.Enter(p)
	defer m.dom.Leave(p)
	if len(ranks) < 2 {
		return fmt.Errorf("monitor: split %s: need at least 2 ranks, got %d", dir, len(ranks))
	}
	for _, r := range ranks {
		if r < 0 || r >= m.cl.Ranks() {
			return fmt.Errorf("monitor: split %s: rank %d out of range [0,%d)",
				dir, r, m.cl.Ranks())
		}
	}
	for _, r := range ranks {
		if err := m.cl.ReplicateSubtree(p, dir, r); err != nil {
			return fmt.Errorf("monitor: split %s: %w", dir, err)
		}
	}
	p.Sleep(commitLatency)
	m.epoch++
	m.cl.SplitCommit(dir, ranks)
	m.publish()
	if fl := m.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), "monitor", "monitor", "split.commit",
			fmt.Sprintf("%s across %v epoch=%d", dir, ranks, m.epoch))
	}
	return nil
}
