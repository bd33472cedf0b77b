package mds

import (
	"errors"
	"fmt"

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
// linearization point: ownership changes only when a new epoch is
// published, so any crash or abort before that leaves the source
// authoritative and the destination holding a harmless stale copy.

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
// and an export session (directory list, journal tail) is prepared.
type ExportFreezeMsg struct{ Path string }

func (m *ExportFreezeMsg) label() string                       { return "export.freeze" }
func (m *ExportFreezeMsg) route() string                       { return m.Path }
func (m *ExportFreezeMsg) serve(s *Server, p runtime.Task) any { return s.exportFreeze(p, m) }

// ExportManifest summarizes a frozen subtree for the importer.
type ExportManifest struct {
	Path    string
	Root    namespace.Ino
	Dirs    int // directory objects to stream
	Inodes  int // inodes under the subtree
	Caps    int // capabilities revoked at freeze
	Policy  *policy.Policy
	Owner   string // decoupling client, "" when not decoupled
	GrantLo namespace.Ino
	GrantN  uint64
	Tail    []*journal.Event // journal events touching the subtree
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
// journaled export-commit record and, on success, prunes the subtree
// and thaws routing state. A failed (or torn) record write leaves the
// subtree frozen and intact; the monitor then aborts the migration.
type ExportCommitMsg struct {
	Path string
	Seq  uint64 // monitor-assigned migration sequence
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
type ImportOpenMsg struct {
	Path      string
	TotalDirs int
}

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
// drain, installs the subtree's policy/owner/grant verbatim (so the
// grant a client already holds stays valid across the move), and
// appends the shipped journal tail to the importer's own journal.
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

// AttachMsg installs a subtree's policy, owner, and an exact inode
// grant on a rank without allocating a fresh range — the re-attach path
// after a migration or a rank restart, where the client must keep the
// grant it already holds. Attach is a control message: it bypasses the
// freeze/ownership bounce.
type AttachMsg struct {
	Path   string
	Policy *policy.Policy
	Client string
	Lo     namespace.Ino
	N      uint64
}

func (m *AttachMsg) label() string                       { return "attach" }
func (m *AttachMsg) route() string                       { return m.Path }
func (m *AttachMsg) serve(s *Server, p runtime.Task) any { return s.attach(p, m) }

// AttachReply answers an AttachMsg.
type AttachReply struct{ Err error }

// --- exporting rank ---

// exportState is one live export session on the source rank.
type exportState struct {
	dirs     []namespace.Ino // namespace.Store.SubtreeDirs: install order
	manifest ExportManifest
}

// migrateChunkDirs returns the per-chunk directory-object count.
func (s *Server) migrateChunkDirs() int {
	if s.cfg.MigrateChunkDirs > 0 {
		return s.cfg.MigrateChunkDirs
	}
	return 16
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

// exportWalk snapshots the subtree at path as an export session and the
// set of inodes under it. It never yields. The session streams the
// ancestor chain ahead of the subtree's own directories (SubtreeDirs);
// ancestors are not part of the export itself — they stay owned by this
// rank and are outside the inode set, cap revocation, and the prune.
func (s *Server) exportWalk(path string) (*exportState, map[namespace.Ino]bool, error) {
	root, err := s.store.Resolve(path)
	if err != nil {
		return nil, nil, err
	}
	if !root.IsDir() || root.Ino == namespace.RootIno {
		return nil, nil, fmt.Errorf("mds: export %s: %w", path, namespace.ErrInval)
	}
	inos, err := s.store.SubtreeInos(path)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := s.store.SubtreeDirs(path)
	if err != nil {
		return nil, nil, err
	}
	return &exportState{dirs: dirs, manifest: ExportManifest{
		Path:   path,
		Root:   root.Ino,
		Dirs:   len(dirs),
		Inodes: len(inos),
		Policy: root.Policy,
		Owner:  s.owners[root.Ino],
	}}, inos, nil
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
	// current.
	var ex *exportState
	var inos map[namespace.Ino]bool
	revoked := 0
	for {
		var err error
		if ex, inos, err = s.exportWalk(path); err != nil {
			return &ExportFreezeReply{Err: err}
		}
		before := revoked
		for ino, dc := range s.caps {
			if !inos[ino] || (dc.holder == "" && !dc.shared) {
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

	// The journal tail: every untrimmed event of this rank's journal
	// that touches the subtree ships with the manifest, so the importer's
	// own journal series covers the subtree's recent history.
	var tail []*journal.Event
	if s.streamOn.Load() {
		for _, ev := range s.stream.jrnl.Events() {
			if inos[namespace.Ino(ev.Parent)] || inos[namespace.Ino(ev.Ino)] {
				tail = append(tail, ev)
			}
		}
	}

	ex.manifest.Caps, ex.manifest.Tail = revoked, tail
	if s.frozen == nil {
		s.frozen = make(map[string]bool)
	}
	if s.exports == nil {
		s.exports = make(map[string]*exportState)
	}
	s.frozen[path] = true
	s.exports[path] = ex
	s.metrics.Exports++
	if fl := s.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), s.ep.Name(), "mds", "export.freeze",
			fmt.Sprintf("%s dirs=%d caps=%d tail=%d", path, len(ex.dirs), revoked, len(tail)))
	}
	return &ExportFreezeReply{Manifest: ex.manifest}
}

// exportSave is the ExportSaveMsg handler: write the frozen subtree's
// directory objects durably to the metadata pool. After this, every
// update acknowledged before the freeze is crash-safe on both sides.
func (s *Server) exportSave(p runtime.Task, m *ExportSaveMsg) *ExportSaveReply {
	ex := s.exports[transport.Clean(m.Path)]
	if ex == nil {
		return &ExportSaveReply{Err: ErrNotExporting}
	}
	saved, err := s.saveDirs(p, ex.dirs)
	if err != nil {
		err = fmt.Errorf("export save: %w", err)
	}
	return &ExportSaveReply{Saved: saved, Err: err}
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
	k := s.migrateChunkDirs()
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
	rec := &journal.Event{
		Type:      journal.EvExport,
		Seq:       m.Seq,
		Name:      path,
		Ino:       uint64(ex.manifest.Root),
		Parent:    uint64(s.rank),
		NewParent: uint64(m.Dst),
	}
	var enc journal.Encoder
	data, err := enc.Encode([]*journal.Event{rec})
	if err != nil {
		return &ExportCommitReply{Err: err}
	}
	oid := rados.ObjectID{Pool: MigrationPool, Name: ExportRecordName(m.Seq)}
	if err := s.obj.Write(p, oid, data); err != nil {
		// The record is not durably down: leave the subtree frozen and
		// intact so the monitor's abort path restores service here.
		return &ExportCommitReply{Err: fmt.Errorf("export commit record: %w", err)}
	}
	pruned, err := s.store.PruneSubtree(path)
	if err != nil {
		return &ExportCommitReply{Err: err}
	}
	delete(s.owners, ex.manifest.Root)
	delete(s.exports, path)
	// The freeze deliberately persists: routing points at this rank
	// until the monitor publishes the new epoch, and a request served
	// from the pruned store would see a spurious ErrNotExist. The
	// monitor thaws the subtree (ExportAbortMsg) right after publish;
	// from then on stale routes bounce with the new epoch instead.
	if fl := s.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), s.ep.Name(), "mds", "export.commit",
			fmt.Sprintf("%s seq=%d pruned=%d -> rank %d", path, m.Seq, pruned, m.Dst))
	}
	return &ExportCommitReply{Pruned: pruned}
}

// exportAbort is the ExportAbortMsg handler: thaw and keep everything.
// Unknown sessions (wiped by a crash) acknowledge as already aborted.
func (s *Server) exportAbort(p runtime.Task, m *ExportAbortMsg) *ExportAbortReply {
	path := transport.Clean(m.Path)
	delete(s.frozen, path)
	delete(s.exports, path)
	if fl := s.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), s.ep.Name(), "mds", "export.abort", path)
	}
	return &ExportAbortReply{}
}

// --- importing rank ---

// newImportSched is the directory-object instantiation of the stream
// scheduler: an admitted import costs only its wire hop, and each chunk's
// objects install into the live store at the per-directory CPU cost.
func newImportSched(s *Server) *streamSched {
	admitMax := s.cfg.MigrateAdmitMax
	if admitMax <= 0 {
		admitMax = 2
	}
	return newStreamSched(s, streamKind{
		name:         "import",
		admitMax:     admitMax,
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
		obj, err := namespace.DecodeDir(data)
		if err == nil {
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
// proc to drain the job, then adopt the subtree's policy, owner, grant,
// and journal tail.
func (s *Server) importCommit(p runtime.Task, m *ImportCommitMsg) *ImportCommitReply {
	installed, err := s.imports.wait(p, m.ID)
	if err == nil && s.stopped {
		err = ErrShutdown
	}
	if err != nil {
		return &ImportCommitReply{Installed: installed, Err: err}
	}

	man := m.Manifest
	root, err := s.store.Resolve(man.Path)
	if err == nil {
		err = s.adopt(root.Ino, man.Policy, man.Owner, man.GrantLo, man.GrantN)
	}
	if err != nil {
		return &ImportCommitReply{Installed: installed, Err: err}
	}
	// Append the shipped journal tail to this rank's own journal series,
	// charging the usual per-event journaling CPU. Replay after a crash
	// tolerates these (the saved directory objects already contain the
	// same state).
	if s.streamOn.Load() && len(man.Tail) > 0 {
		s.cpu.Acquire(p)
		for _, ev := range man.Tail {
			p.Sleep(s.cfg.MDSJournalOpTime)
			if seg, err := s.stream.jrnl.Append(ev); err == nil {
				s.metrics.Journaled++
				if seg != nil {
					s.stream.queue = append(s.stream.queue, seg)
					s.stream.kick()
				}
			}
		}
		s.cpu.Release()
	}
	if fl := s.eng.Flight(); fl != nil {
		fl.Record(int64(p.Now()), s.ep.Name(), "mds", "import.commit",
			fmt.Sprintf("%s dirs=%d tail=%d", man.Path, installed, len(man.Tail)))
	}
	return &ImportCommitReply{Installed: installed}
}

// --- attach ---

// Attach installs a subtree policy/owner/grant verbatim on this rank
// (monitor re-attach path).
func (s *Server) Attach(p runtime.Task, path string, pol *policy.Policy, client string, lo namespace.Ino, n uint64) error {
	return s.ep.Post(p, &AttachMsg{Path: path, Policy: pol, Client: client, Lo: lo, N: n}).(*AttachReply).Err
}

// attach is the AttachMsg handler body.
func (s *Server) attach(p runtime.Task, m *AttachMsg) *AttachReply {
	if s.stopped {
		return &AttachReply{Err: ErrShutdown}
	}
	return &AttachReply{Err: s.onSubtree(p, m.Path, func(root namespace.Ino) error {
		return s.adopt(root, m.Policy, m.Client, m.Lo, m.N)
	})}
}

// Frozen reports whether any subtree covering path is frozen on this
// rank (exported mid-flight).
func (s *Server) Frozen(path string) bool { return s.frozenCovers(transport.Clean(path)) }
