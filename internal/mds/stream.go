package mds

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/trace"
)

// JournalPool is the RADOS pool holding the MDS's streamed journal
// segments.
const JournalPool = "cephfs_journal"

// journalObjectName names one streamed journal segment object. Each rank
// streams into its own object series; rank 0 uses the legacy names.
func journalObjectName(rank, index int) string {
	return fmt.Sprintf("mds%d_journal.%08d", rank, index)
}

// streamState implements the Stream mechanism: the MDS journals every
// metadata update and streams sealed segments into the object store. The
// two tunables from the paper (§II-A, Fig 3a) are the segment size
// (events per segment) and the dispatch size (segments pushed at once).
type streamState struct {
	s *Server

	jrnl  *journal.Journal
	queue []*journal.Segment // sealed, awaiting dispatch

	// enc amortizes the payload scratch buffer across every segment this
	// rank dispatches. Sharing it between segwrite tasks is safe: they
	// run in the rank's domain and Encode never yields.
	enc journal.Encoder

	dispatching bool
	flushedSeg  int // highest segment index safely in the object store

	// segBase offsets this journal's segment indices into the rank's
	// object-name series. It is zero for a rank's first life; a
	// crash-restart starts a fresh journal whose indices begin at zero
	// again, so Restart sets segBase past the recovered objects to keep
	// the on-store series append-only.
	segBase int
}

func newStreamState(s *Server) *streamState {
	return &streamState{
		s:          s,
		jrnl:       journal.New(s.cfg.SegmentEvents),
		flushedSeg: -1,
	}
}

// record converts a successful mutation into a journal event and appends
// it. Sealed segments are queued for dispatch. Runs in the requesting
// client's process, off the MDS CPU. A create or mkdir carries the inode
// the rank assigned: replay reinstalls it and never allocates, so every
// later event naming that inode as its parent still finds it.
func (st *streamState) record(p runtime.Task, req *Request, reply *Reply) {
	ev := requestEvent(req, reply)
	if ev == nil {
		return
	}
	seg, err := st.jrnl.Append(ev)
	if err != nil {
		return // invalid events are not journaled
	}
	st.s.metrics.Journaled++
	if rec := p.Runtime().Tracer(); rec != nil {
		rec.Instant(int64(p.Now()), st.s.ep.Name(), "journal", "journal.append")
	}
	if seg != nil {
		st.queue = append(st.queue, seg)
		st.kick()
	}
}

// requestEvent maps an RPC and its successful reply to the journal event.
func requestEvent(req *Request, reply *Reply) *journal.Event {
	switch req.Op {
	case OpCreate, OpMkdir:
		t := journal.EvCreate
		if req.Op == OpMkdir {
			t = journal.EvMkdir
		}
		return &journal.Event{
			Type: t, Client: req.Client,
			Parent: uint64(req.Parent), Name: req.Name, Ino: uint64(reply.Ino),
			Mode: req.Mode, UID: req.UID, GID: req.GID,
		}
	case OpUnlink:
		return &journal.Event{Type: journal.EvUnlink, Client: req.Client,
			Parent: uint64(req.Parent), Name: req.Name}
	case OpRmdir:
		return &journal.Event{Type: journal.EvRmdir, Client: req.Client,
			Parent: uint64(req.Parent), Name: req.Name}
	case OpRename:
		return &journal.Event{Type: journal.EvRename, Client: req.Client,
			Parent: uint64(req.Parent), Name: req.Name,
			NewParent: uint64(req.NewParent), NewName: req.NewName}
	case OpSetAttr:
		return &journal.Event{Type: journal.EvSetAttr, Client: req.Client,
			Ino: uint64(req.Ino), Mode: req.Mode, UID: req.UID, GID: req.GID,
			Size: req.Size, Mtime: req.Mtime}
	}
	return nil
}

// kick starts the dispatcher process if it is not already running.
func (st *streamState) kick() {
	if st.dispatching {
		return
	}
	st.dispatching = true
	st.s.dom.Spawn("mds.dispatch", st.dispatchLoop)
}

// dispatchLoop drains the segment queue in batches of up to DispatchSize.
// Each dispatch scans the configured dispatch window, so the per-segment
// management cost grows with the DispatchSize tunable:
// SegmentDispatchCPU*(1+(DispatchSize-1)*congestion). Those cycles come
// off the request-processing CPU, which is why large dispatch sizes
// degrade performance under load (Fig 3a).
func (st *streamState) dispatchLoop(p runtime.Task) {
	for len(st.queue) > 0 {
		k := st.s.cfg.DispatchSize
		if k > len(st.queue) {
			k = len(st.queue)
		}
		batch := st.queue[:k]
		st.queue = st.queue[k:]

		perSeg := runtime.Duration(float64(st.s.cfg.MDSSegmentDispatchCPU) *
			(1 + float64(st.s.cfg.DispatchSize-1)*st.s.cfg.MDSDispatchCongestion))

		// Management cycles contend with request processing.
		for range batch {
			st.s.cpu.Use(p, perSeg)
		}

		// The writes themselves go out in parallel ("dispatched at
		// once") and do not hold the CPU.
		g := st.s.dom.NewGroup()
		striper := rados.NewStriper(st.s.obj)
		for _, seg := range batch {
			seg := seg
			g.Go("mds.segwrite", func(wp runtime.Task) {
				name := journalObjectName(st.s.rank, st.segBase+seg.Index)
				nominal := int64(len(seg.Events)) * int64(st.s.cfg.JournalEventBytes)
				data, err := st.enc.Encode(seg.Events)
				if err != nil {
					return
				}
				rec := wp.Runtime().Tracer()
				span := trace.SpanID(-1)
				if rec != nil {
					span = rec.Begin(int64(wp.Now()),
						st.s.ep.Name(), "journal", "journal.segwrite",
						trace.KV{Key: "object", Val: name})
				}
				// Charge the paper's 2.5 KB/event footprint; store
				// the real bytes.
				werr := striper.WriteBilled(wp, JournalPool, name, data, nominal)
				rec.End(span, int64(wp.Now()))
				if werr != nil {
					// The segment is not safely down: leave flushedSeg
					// alone so trimming never drops its events, and keep
					// the in-memory journal as the source of truth.
					return
				}
				st.s.metrics.Dispatches++
				st.s.metrics.JournalBytes += uint64(nominal)
				if seg.Index > st.flushedSeg {
					st.flushedSeg = seg.Index
				}
			})
		}
		g.Wait(p)
	}
	st.dispatching = false
}

// FlushJournal seals and dispatches any buffered segments, waiting until
// the journal is safe in the object store.
func (s *Server) FlushJournal(p runtime.Task) {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	if seg := s.stream.jrnl.Seal(); seg != nil {
		s.stream.queue = append(s.stream.queue, seg)
	}
	s.stream.kick()
	// Wait for the dispatcher to drain.
	for s.stream.dispatching {
		p.Sleep(runtime.Duration(1e6)) // 1 ms poll
	}
}

// JournalLen returns the number of events in the MDS journal that have
// not been trimmed.
func (s *Server) JournalLen() int { return s.stream.jrnl.Len() }

// TrimJournal expires segments that are safe in the object store and
// whose updates have been applied to the metadata store.
func (s *Server) TrimJournal() {
	s.stream.jrnl.Trim(s.stream.flushedSeg)
}

// SaveStore applies the in-memory metadata store to its RADOS
// representation: one object per directory, dentries in omap-style
// payloads (paper §IV-A). The journal can be trimmed afterwards.
func (s *Server) SaveStore(p runtime.Task) error {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	if _, err := s.saveDirs(p, s.store.Dirs()); err != nil {
		return fmt.Errorf("mds save: %w", err)
	}
	s.TrimJournal()
	return nil
}

// saveDirs writes the directory objects of dirs to the metadata pool, in
// order, through one pipeline — one wait for the disk, not one per
// directory — and reports how many are durable: those written before the
// first error, none if the Flush that covers them failed.
func (s *Server) saveDirs(p runtime.Task, dirs []namespace.Ino) (saved int, err error) {
	pl := s.obj.Pipeline()
	for _, ino := range dirs {
		var data []byte
		if data, err = s.store.EncodeDir(ino); err == nil {
			oid := rados.ObjectID{Pool: namespace.ObjectPool, Name: namespace.DirObjectName(ino)}
			err = pl.Write(p, oid, data)
		}
		if err != nil {
			break
		}
		saved++
	}
	if ferr := pl.Flush(p); ferr != nil {
		return 0, ferr
	}
	return saved, err
}

// Recover rebuilds the in-memory metadata store from RADOS, then replays
// any streamed journal segments on top — the restart path that
// Nonvolatile Apply relies on (paper §III-A): after a client pushes
// updates into the object store, the restarted MDS notices and replays
// them onto its in-memory store.
func (s *Server) Recover(p runtime.Task) error {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	fresh := newRankStore(s.rank)

	// Load directory objects and install parents before children: an
	// object's depth is the length of its chain of Parent links that are
	// objects too. The root is its own parent; a chain longer than the
	// listing is a cycle, whose members sort last and fail to install.
	names := s.obj.List(p, namespace.ObjectPool)
	objs := make([]*namespace.DirObject, 0, len(names))
	byIno := make(map[namespace.Ino]*namespace.DirObject, len(names))
	for _, name := range names {
		data, err := s.obj.Read(p, rados.ObjectID{Pool: namespace.ObjectPool, Name: name})
		if err != nil {
			return err
		}
		obj, err := namespace.DecodeDir(data)
		if err != nil {
			return fmt.Errorf("mds recover: object %s: %w", name, err)
		}
		objs = append(objs, obj)
		byIno[obj.Ino] = obj
	}
	depth := make(map[*namespace.DirObject]int, len(objs))
	for _, obj := range objs {
		d := 0
		for a := obj; a.Parent != a.Ino && byIno[a.Parent] != nil && d <= len(objs); a = byIno[a.Parent] {
			d++
		}
		depth[obj] = d
	}
	slices.SortStableFunc(objs, func(a, b *namespace.DirObject) int { return cmp.Compare(depth[a], depth[b]) })
	for _, obj := range objs {
		if err := fresh.InstallDir(obj); err != nil {
			return fmt.Errorf("mds recover: orphan directory object %s: %w", namespace.DirObjectName(obj.Ino), err)
		}
	}

	// Replay streamed journal segments from the object store.
	if rec := p.Runtime().Tracer(); rec != nil {
		replay := rec.Begin(int64(p.Now()), s.ep.Name(), "journal", "journal.replay")
		defer func() { rec.End(replay, int64(p.Now())) }()
	}
	striper := rados.NewStriper(s.obj)
	nseg := 0
	for idx := 0; ; idx++ {
		name := journalObjectName(s.rank, idx)
		data, err := striper.Read(p, JournalPool, name)
		if err != nil {
			break // no more segments
		}
		nseg = idx + 1
		events, err := journal.Decode(data)
		if err != nil {
			return fmt.Errorf("mds recover: journal segment %d: %w", idx, err)
		}
		for _, ev := range events {
			// Replay tolerates updates already present in the
			// flushed store (idempotent recovery).
			if err := fresh.ApplyEvent(ev); err != nil &&
				!isReplayBenign(err) {
				return fmt.Errorf("mds recover: replay: %w", err)
			}
		}
	}

	s.store = fresh
	s.se = nil // the resolver rendered into the replaced store
	s.caps = make(map[namespace.Ino]*dirCaps)
	s.recoveredSegs = nseg
	return nil
}

func isReplayBenign(err error) bool {
	// Deletions already applied, creates already materialized.
	return err != nil && (errors.Is(err, namespace.ErrNotExist) || errors.Is(err, namespace.ErrExist))
}
