package mds

import (
	"cmp"
	"errors"
	"fmt"
	gopath "path"
	"slices"

	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// This file implements the rank side of online subtree migration: the
// exporting rank freezes the subtree, durably saves its directory
// objects, and streams them to the importing rank over the same
// windowed/backpressured chunk machinery the merge scheduler uses; the
// export-commit record makes the handoff crash-adjudicable. The monitor
// orchestrates the protocol (monitor.Migrate) and owns the routing
// linearization point: ownership changes only when it flips the table,
// so any crash or abort before that leaves the source authoritative and
// the destination holding a harmless stale copy.

// MigrationPool is the RADOS pool holding export-commit records.
const MigrationPool = "cudele_migration"

// ExportRecordName names the commit record of one migration sequence.
func ExportRecordName(seq uint64) string {
	return fmt.Sprintf("export.%08d", seq)
}

// ErrNotExporting is answered to export control messages for a subtree
// this rank has no export session for (e.g. after a crash wiped it).
var ErrNotExporting = errors.New("mds: no export session for subtree")

// ExportFreezeMsg freezes the subtree at Path on the owning rank:
// requests into it bounce with a Frozen redirect, its caps are revoked,
// and an export session (its directory list) is prepared.
type ExportFreezeMsg struct{ Path string }

func (m *ExportFreezeMsg) label() string                       { return "export.freeze" }
func (m *ExportFreezeMsg) route() string                       { return m.Path }
func (m *ExportFreezeMsg) serve(s *Server, p runtime.Task) any { return s.exportFreeze(p, m) }

// ExportManifest summarizes a frozen subtree for the importer.
type ExportManifest struct {
	Path string
	Root namespace.Ino
	Dirs int // directory objects to stream
	// Registered is every registered root among the directories the
	// session streams, the ancestor chain and the subtree root included,
	// in walk order: the importer adopts each one, so a registration
	// nested under the subtree moves with it, and one above it governs
	// the subtree on the importer as it did on the source.
	Registered []Registration
	// Unsaved says whether the source's journal holds events that no
	// SaveStore has written since (streamState.unsaved). The journal
	// stays with the source, so a handoff must then save the subtree.
	Unsaved bool
}

// Registration is one registered subtree root: its inode and the
// registration the monitor stamped on its policy (owner and grant).
type Registration struct {
	Ino    namespace.Ino
	Policy *policy.Policy
}

// ExportFreezeReply answers an ExportFreezeMsg.
type ExportFreezeReply struct {
	Manifest ExportManifest
	Err      error
}

// ExportReadMsg asks the exporting rank for the next chunk of encoded
// directory objects of its export session for Path.
type ExportReadMsg struct {
	Path  string
	Chunk int // chunk index, sequential from 0
}

func (m *ExportReadMsg) label() string                       { return "export.read" }
func (m *ExportReadMsg) route() string                       { return m.Path }
func (m *ExportReadMsg) serve(s *Server, p runtime.Task) any { return s.exportRead(p, m) }

// ExportReadReply carries one chunk of encoded directory objects.
type ExportReadReply struct {
	Objs [][]byte
	Last bool
	Err  error
}

// ExportSaveMsg makes the frozen subtree durable: every directory object
// under it is written to the metadata pool, so all updates acknowledged
// before the freeze survive any crash regardless of which rank dies
// next.
type ExportSaveMsg struct{ Path string }

func (m *ExportSaveMsg) label() string                       { return "export.save" }
func (m *ExportSaveMsg) route() string                       { return m.Path }
func (m *ExportSaveMsg) serve(s *Server, p runtime.Task) any { return s.exportSave(p, m) }

// ExportSaveReply answers an ExportSaveMsg.
type ExportSaveReply struct {
	Saved int
	Err   error
}

// ExportCommitMsg finishes the source side: the rank writes the
// journaled export-commit record and, on success, prunes the subtree.
// A failed (or torn) record write leaves the subtree frozen and intact;
// the monitor then aborts the migration. A handoff that keeps nothing
// durable (a placement off a source whose journal holds nothing unsaved)
// sends Seq 0 and the rank prunes without a record.
type ExportCommitMsg struct {
	Path string
	Seq  uint64 // monitor-assigned migration sequence; 0 writes no record
	Dst  int    // destination rank, recorded for the audit trail
}

func (m *ExportCommitMsg) label() string                       { return "export.commit" }
func (m *ExportCommitMsg) route() string                       { return m.Path }
func (m *ExportCommitMsg) serve(s *Server, p runtime.Task) any { return s.exportCommit(p, m) }

// ExportCommitReply answers an ExportCommitMsg.
type ExportCommitReply struct {
	Pruned int
	Err    error
}

// ExportAbortMsg unfreezes a subtree and discards the export session.
// Safe to send to a rank that crashed mid-export: the session is
// volatile, so an unknown path is acknowledged as already aborted.
type ExportAbortMsg struct{ Path string }

func (m *ExportAbortMsg) label() string                       { return "export.abort" }
func (m *ExportAbortMsg) route() string                       { return m.Path }
func (m *ExportAbortMsg) serve(s *Server, p runtime.Task) any { return s.exportAbort(p, m) }

// ExportAbortReply answers an ExportAbortMsg.
type ExportAbortReply struct{ Err error }

// ImportOpenMsg opens an import session on the destination rank: a
// stream on the rank's second scheduler (scheduler.go), which bounds
// concurrent admissions (MigrateAdmitMax) and buffers chunks in a
// flow-control window. It is answered with a StreamOpenReply.
type ImportOpenMsg struct{ Path string }

func (m *ImportOpenMsg) label() string                       { return "import.open" }
func (m *ImportOpenMsg) route() string                       { return m.Path }
func (m *ImportOpenMsg) serve(s *Server, p runtime.Task) any { return s.imports.open(p) }

// ImportChunkMsg ships one chunk of encoded directory objects; Bytes is
// their total length. It is answered with a StreamChunkReply.
type ImportChunkMsg struct {
	transport.StreamInfo
	Path string
	Objs [][]byte
}

func (m *ImportChunkMsg) label() string                       { return "import.chunk" }
func (m *ImportChunkMsg) route() string                       { return m.Path }
func (m *ImportChunkMsg) serve(s *Server, p runtime.Task) any { return s.imports.push(p, m) }

// ImportCommitMsg completes an import: waits for buffered chunks to
// drain and adopts every registration the manifest lists verbatim (so
// the grant a client already holds stays valid across the move). It ships
// no journal: ExportSave has already made every event the exporter
// journaled for the subtree durable in its directory objects.
type ImportCommitMsg struct {
	ID       uint64
	Manifest ExportManifest
}

func (m *ImportCommitMsg) label() string                       { return "import.commit" }
func (m *ImportCommitMsg) route() string                       { return "" }
func (m *ImportCommitMsg) serve(s *Server, p runtime.Task) any { return s.importCommit(p, m) }

// ImportCommitReply answers an ImportCommitMsg.
type ImportCommitReply struct {
	Installed int
	Err       error
}

// ImportAbortMsg abandons an import session; buffered and already
// installed state is left as a harmless unreachable copy (routing never
// pointed at the importer). It is answered with a StreamAbortReply.
type ImportAbortMsg struct{ ID uint64 }

func (m *ImportAbortMsg) label() string                       { return "import.abort" }
func (m *ImportAbortMsg) route() string                       { return "" }
func (m *ImportAbortMsg) serve(s *Server, p runtime.Task) any { return s.imports.abort(p, m.ID) }

// AttachMsg installs a subtree's registration on a rank: the policy the
// monitor stamped with its owner and the exact inode grant it issued. A
// nil Policy clears the registration (recouple). A rank never picks a
// grant itself. It is a control message: it bypasses the
// freeze/ownership bounce. A restarting rank is handed the same values
// as Restart's argument, not as messages, so it adopts them before it
// serves; the client keeps the grant it already holds.
type AttachMsg struct {
	Path   string
	Policy *policy.Policy
}

func (m *AttachMsg) label() string                       { return "attach" }
func (m *AttachMsg) route() string                       { return m.Path }
func (m *AttachMsg) serve(s *Server, p runtime.Task) any { return s.attach(p, m) }

// AttachReply answers an AttachMsg.
type AttachReply struct{ Err error }

// --- exporting rank ---

// exportedPath is the path this rank places a request for ino by when it
// does not hold ino, "" when no export of this rank took ino away: ino's
// path when it left, rebuilt from the names and parents its committed
// exports recorded (Server.exported) up to the nearest ancestor the rank
// holds. An export keeps its root as a bound, so the walk ends there at
// the latest. The table names the owner of that path however often the
// subtree has moved since, and a part of it that moved on from there is
// redirected again by that rank's own records.
func (s *Server) exportedPath(ino namespace.Ino) string {
	var names []string
	for range len(s.exported) {
		i, ok := slices.BinarySearchFunc(s.exported, ino, func(e namespace.Pruned, ino namespace.Ino) int {
			return cmp.Compare(e.Ino, ino)
		})
		if !ok {
			return ""
		}
		names = append(names, s.exported[i].Name)
		ino = s.exported[i].Parent
		if dir, err := s.store.PathOf(ino); err == nil {
			slices.Reverse(names)
			return gopath.Join(append([]string{dir}, names...)...)
		}
	}
	return ""
}

// trimExported drops from the export records every inode the rank holds
// again: an import that brings a subtree home — all of it, or all but a
// part placed on a third rank meanwhile — ends the records it answers
// for.
func (s *Server) trimExported() {
	s.exported = slices.DeleteFunc(s.exported, func(e namespace.Pruned) bool {
		_, err := s.store.Get(e.Ino)
		return err == nil
	})
}

// exportState is one live export session on the source rank.
type exportState struct {
	dirs     []namespace.Ino // namespace.Store.Subtree: install order
	manifest ExportManifest
}

// migrateDirCPU is the CPU cost to encode or install one directory
// object during migration.
func (s *Server) migrateDirCPU() runtime.Duration {
	if s.cfg.MigrateDirCPU > 0 {
		return s.cfg.MigrateDirCPU
	}
	return s.cfg.MDSApplyTime
}

// frozenCovers reports whether path is inside any frozen subtree.
func (s *Server) frozenCovers(path string) bool {
	if len(s.frozen) == 0 || path == "" {
		return false
	}
	for f := range s.frozen {
		if transport.HasPathPrefix(path, f) {
			return true
		}
	}
	return false
}

// owns reports whether this rank holds inode ino and the table gives it
// this rank. A directory it holds but does not own is a bound: the empty
// inode its parent lists (namespace.Store.PruneExport), or a copy an
// import's ancestor chain brought.
func (s *Server) owns(ino namespace.Ino) bool {
	path, err := s.store.PathOf(ino)
	return err == nil && s.c.table.RankFor(path) == s.rank
}

// bound reports whether in is a directory this rank holds as a bound.
func (s *Server) bound(in *namespace.Inode) bool {
	return in != nil && in.IsDir() && !s.owns(in.Ino)
}

// holdsBound reports whether directory in has, strictly under it, a
// subtree the table places on another rank.
func (s *Server) holdsBound(in *namespace.Inode) bool {
	path, err := s.store.PathOf(in.Ino)
	if err != nil {
		return false
	}
	for _, placed := range s.c.table.Paths() {
		if placed != path && transport.HasPathPrefix(placed, path) && s.c.table.RankFor(placed) != s.rank {
			return true
		}
	}
	return false
}

// exportBusy is the reason the subtree at path cannot freeze right now,
// nil when it can. A merge applied mid-export would corrupt the streamed
// image, so freezing refuses while any Volatile Apply is in flight — a
// streamed merge counts from the moment its open is admitted, before its
// setup cost is paid — and the monitor simply aborts and retries the
// migration later.
func (s *Server) exportBusy(path string) error {
	if s.stopped {
		return ErrShutdown
	}
	if n := s.mergeQueue + s.merge.admitting; n != 0 {
		return fmt.Errorf("mds: %d merges in flight: %w", n, namespace.ErrBusy)
	}
	if s.frozenCovers(path) {
		return fmt.Errorf("mds: export %s: %w", path, namespace.ErrBusy)
	}
	return nil
}

// exportWalk snapshots the subtree at path as an export session. It
// never yields. The session streams the ancestor chain ahead of the
// subtree's own directories (Subtree); ancestors are not part of the
// export itself — they stay owned by this rank and are outside cap
// revocation and the prune. The manifest lists the registration of every
// directory streamed, ancestors included: a registered ancestor governs
// the subtree on the importer too.
func (s *Server) exportWalk(path string) (*exportState, error) {
	root, err := s.store.Resolve(path)
	if err != nil {
		return nil, err
	}
	if root.Ino == namespace.RootIno {
		return nil, fmt.Errorf("mds: export %s: %w", path, namespace.ErrInval)
	}
	dirs, _, err := s.store.Subtree(path) // refuses a file: ErrNotDir
	if err != nil {
		return nil, err
	}
	var reg []Registration
	for _, d := range dirs {
		if in, err := s.store.Get(d); err == nil && in.Policy != nil {
			reg = append(reg, Registration{d, in.Policy})
		}
	}
	return &exportState{dirs: dirs, manifest: ExportManifest{
		Path:       path,
		Root:       root.Ino,
		Dirs:       len(dirs),
		Registered: reg,
		Unsaved:    s.stream.unsaved,
	}}, nil
}

// exportFreeze is the ExportFreezeMsg handler: quiesce and snapshot the
// subtree. The handler yields — waiting for the rank's CPU, paying the
// resolve, revoking caps — and until the subtree is marked frozen every
// yield lets a merge be admitted or an RPC change the subtree. So the
// snapshot is taken, and the busy check repeated, after the last yield:
// between them and the freeze mark the handler does not yield.
func (s *Server) exportFreeze(p runtime.Task, m *ExportFreezeMsg) *ExportFreezeReply {
	path := transport.Clean(m.Path)
	if err := s.exportBusy(path); err != nil {
		return &ExportFreezeReply{Err: err} // refused before it costs the rank anything
	}
	s.cpu.Acquire(p)
	defer s.cpu.Release()
	p.Sleep(s.serviceTime(OpResolve))

	// Revoke every capability under the subtree: clients lose their
	// read-caching caps mid-freeze and re-acquire them from the new
	// owner after the handoff. Revocation is real MDS work, so each one
	// yields; walk again until a pass revokes nothing, and that walk is
	// current. Caps are per directory (updateCaps), so a cap is under the
	// subtree when its inode is one of the subtree's own directories.
	var ex *exportState
	revoked := 0
	for {
		var err error
		if ex, err = s.exportWalk(path); err != nil {
			return &ExportFreezeReply{Err: err}
		}
		own := ex.dirs[slices.Index(ex.dirs, ex.manifest.Root):]
		under := make(map[namespace.Ino]bool, len(own))
		for _, d := range own {
			under[d] = true
		}
		before := revoked
		for ino, dc := range s.caps {
			if !under[ino] || (dc.holder == "" && !dc.shared) {
				continue
			}
			p.Sleep(s.cfg.MDSCapRevokeTime)
			s.metrics.CapRevokes++
			revoked++
			delete(s.caps, ino)
		}
		if revoked == before {
			break
		}
	}
	if err := s.exportBusy(path); err != nil {
		return &ExportFreezeReply{Err: err}
	}

	if s.frozen == nil {
		s.frozen = make(map[string]bool)
	}
	if s.exports == nil {
		s.exports = make(map[string]*exportState)
	}
	s.frozen[path] = true
	s.exports[path] = ex
	s.metrics.Exports++
	if rec := s.eng.Tracer(); rec != nil {
		rec.Record(int64(p.Now()), s.ep.Name(), "mds", "export.freeze",
			fmt.Sprintf("%s dirs=%d caps=%d", path, len(ex.dirs), revoked))
	}
	return &ExportFreezeReply{Manifest: ex.manifest}
}

// exportSave is the ExportSaveMsg handler: write the frozen subtree's
// directory objects durably to the metadata pool. After this, every
// update acknowledged before the freeze is crash-safe on both sides.
func (s *Server) exportSave(p runtime.Task, m *ExportSaveMsg) *ExportSaveReply {
	path := transport.Clean(m.Path)
	ex := s.exports[path]
	if ex == nil {
		return &ExportSaveReply{Err: ErrNotExporting}
	}
	saved, err := s.saveDirs(p, ex.dirs)
	if err != nil {
		return &ExportSaveReply{Saved: saved, Err: fmt.Errorf("export save: %w", err)}
	}
	if rec := s.eng.Tracer(); rec != nil {
		rec.Record(int64(p.Now()), s.ep.Name(), "mds", "export.save", fmt.Sprintf("%s dirs=%d", path, saved))
	}
	return &ExportSaveReply{Saved: saved}
}

// exportRead is the ExportReadMsg handler: encode the next chunk of
// directory objects, charging the source rank's CPU per directory.
func (s *Server) exportRead(p runtime.Task, m *ExportReadMsg) *ExportReadReply {
	if s.stopped {
		return &ExportReadReply{Err: ErrShutdown}
	}
	ex := s.exports[transport.Clean(m.Path)]
	if ex == nil {
		return &ExportReadReply{Err: ErrNotExporting}
	}
	k := s.cfg.MigrateChunkDirs
	lo := m.Chunk * k
	if lo < 0 || lo >= len(ex.dirs) {
		// An empty subtree (one dir) streams a single chunk; past-the-end
		// reads answer an empty final chunk.
		return &ExportReadReply{Last: true}
	}
	hi := lo + k
	if hi > len(ex.dirs) {
		hi = len(ex.dirs)
	}
	s.cpu.Acquire(p)
	objs := make([][]byte, 0, hi-lo)
	for _, ino := range ex.dirs[lo:hi] {
		p.Sleep(s.migrateDirCPU())
		data, err := s.store.EncodeDir(ino)
		if err != nil {
			s.cpu.Release()
			return &ExportReadReply{Err: err}
		}
		objs = append(objs, data)
	}
	s.cpu.Release()
	return &ExportReadReply{Objs: objs, Last: hi == len(ex.dirs)}
}

// exportCommit is the ExportCommitMsg handler: write the journaled
// export-commit record, then prune the subtree and thaw. The record is
// a single CRC-protected journal event, so a torn write is detectable
// and adjudicates the migration as aborted.
func (s *Server) exportCommit(p runtime.Task, m *ExportCommitMsg) *ExportCommitReply {
	if s.stopped {
		return &ExportCommitReply{Err: ErrShutdown}
	}
	path := transport.Clean(m.Path)
	ex := s.exports[path]
	if ex == nil {
		return &ExportCommitReply{Err: ErrNotExporting}
	}
	if m.Seq != 0 {
		var enc journal.Encoder
		data, err := enc.Encode([]*journal.Event{{Type: journal.EvExport, Seq: m.Seq, Name: path,
			Ino: uint64(ex.manifest.Root), Parent: uint64(s.rank), NewParent: uint64(m.Dst)}})
		if err == nil {
			err = s.obj.Write(p, rados.ObjectID{Pool: MigrationPool, Name: ExportRecordName(m.Seq)}, data)
		}
		if err != nil {
			// The record is not durably down: leave the subtree frozen
			// and intact so the monitor's abort path restores service
			// here.
			return &ExportCommitReply{Err: fmt.Errorf("export commit record: %w", err)}
		}
	}
	pruned, err := s.store.PruneExport(path)
	if err != nil {
		return &ExportCommitReply{Err: err}
	}
	delete(s.exports, path)
	s.exported = append(s.exported, pruned...)
	slices.SortFunc(s.exported, func(a, b namespace.Pruned) int { return cmp.Compare(a.Ino, b.Ino) })
	// The freeze deliberately persists: routing points at this rank
	// until the monitor flips the table, and a request served from the
	// pruned store would see a spurious ErrNotExist. The monitor thaws
	// the subtree (ExportAbortMsg) right after the flip; from then on a
	// request routed before it bounces with the new owner instead.
	if rec := s.eng.Tracer(); rec != nil {
		rec.Record(int64(p.Now()), s.ep.Name(), "mds", "export.commit",
			fmt.Sprintf("%s seq=%d pruned=%d -> rank %d", path, m.Seq, len(pruned), m.Dst))
	}
	return &ExportCommitReply{Pruned: len(pruned)}
}

// exportAbort is the ExportAbortMsg handler: thaw and keep everything.
// Unknown sessions (wiped by a crash) acknowledge as already aborted.
func (s *Server) exportAbort(p runtime.Task, m *ExportAbortMsg) *ExportAbortReply {
	path := transport.Clean(m.Path)
	delete(s.frozen, path)
	delete(s.exports, path)
	s.eng.Tracer().Record(int64(p.Now()), s.ep.Name(), "mds", "export.abort", path)
	return &ExportAbortReply{}
}

// --- importing rank ---

// newImportSched is the directory-object instantiation of the stream
// scheduler: an admitted import costs only its wire hop, and each chunk's
// objects install into the live store at the per-directory CPU cost.
func newImportSched(s *Server) *streamSched {
	return newStreamSched(s, streamKind{
		name:         "import",
		admitMax:     s.cfg.MigrateAdmitMax,
		window:       s.cfg.MigrateWindowChunks,
		admit:        func(runtime.Task) { s.metrics.Imports++ },
		service:      s.importService,
		chunks:       &s.metrics.ImportChunks,
		backpressure: &s.metrics.ImportBackpressure,
	})
}

// importService installs one chunk's directory objects.
func (s *Server) importService(p runtime.Task, job *streamJob, sc transport.StreamChunk) {
	objs := sc.(*ImportChunkMsg).Objs
	if len(objs) == 0 {
		return
	}
	s.cpu.Acquire(p)
	defer s.cpu.Release()
	for _, data := range objs {
		p.Sleep(s.migrateDirCPU())
		// A directory this rank holds and owns is skipped: the exporter
		// streams a stale copy of it, from the ancestor chain or from a
		// subtree placed under the export, and installing that would drop
		// the entries made here since. The export's own directories route
		// to the exporter until the flip, so they always install.
		obj, err := namespace.DecodeDir(data)
		if err == nil && !s.owns(obj.Ino) {
			err = s.store.InstallDir(obj)
		}
		if err != nil {
			job.err = fmt.Errorf("import install: %w", err)
			return
		}
		job.done++
	}
}

// importCommit is the ImportCommitMsg handler: wait for the install
// proc to drain the job, then adopt every registration the manifest
// lists.
func (s *Server) importCommit(p runtime.Task, m *ImportCommitMsg) *ImportCommitReply {
	installed, err := s.imports.wait(p, m.ID)
	if err == nil && s.stopped {
		err = ErrShutdown
	}
	if err != nil {
		return &ImportCommitReply{Installed: installed, Err: err}
	}

	man := m.Manifest
	s.trimExported()
	for _, r := range man.Registered {
		if err := s.adopt(r.Ino, r.Policy); err != nil {
			return &ImportCommitReply{Installed: installed, Err: err}
		}
	}
	if rec := s.eng.Tracer(); rec != nil {
		rec.Record(int64(p.Now()), s.ep.Name(), "mds", "import.commit",
			fmt.Sprintf("%s dirs=%d", man.Path, installed))
	}
	return &ImportCommitReply{Installed: installed}
}

// --- attach ---

// attach is the AttachMsg handler body.
func (s *Server) attach(p runtime.Task, m *AttachMsg) *AttachReply {
	if s.stopped {
		return &AttachReply{Err: ErrShutdown}
	}
	return &AttachReply{Err: s.onSubtree(p, m.Path, func(root namespace.Ino) error {
		return s.adopt(root, m.Policy)
	})}
}

// Frozen reports whether any subtree covering path is frozen on this
// rank (exported mid-flight).
func (s *Server) Frozen(path string) bool { return s.frozenCovers(transport.Clean(path)) }
