package mds

import (
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

// journalObjectName names one streamed journal segment object. Each rank,
// rank 0 included, streams into its own series, mds<rank>_journal.<index>.
func journalObjectName(rank, index int) string {
	return fmt.Sprintf("mds%d_journal.%08d", rank, index)
}

// streamState implements the Stream mechanism: the MDS journals every
// metadata update and streams sealed segments into the object store. The
// two tunables from the paper (§II-A, Fig 3a) are the segment size
// (events per segment) and the dispatch size (segments pushed at once).
//
// The rank's journal is the bytes its segment objects hold: a mutation is
// encoded once, into the open segment, and no event object outlives the
// request that made it.
type streamState struct {
	s *Server

	// open is the open segment: the journal header, then one record per
	// event journaled since the last seal; openEvents counts them.
	open       []byte
	openEvents int
	// segCap sizes each new open segment: the last full segment's length
	// plus an eighth, so a segment does not regrow by doubling.
	segCap  int
	nextIdx int    // index of the open segment
	nextSeq uint64 // sequence number of the next event

	sealed []segment // sealed, untrimmed, in index order: counts only
	queue  []queued  // sealed, awaiting dispatch, with their bytes

	// enc amortizes the payload scratch buffer across every event this
	// rank journals. Every append runs in the rank's domain.
	enc journal.Encoder

	dispatching bool
	flushedSeg  int // highest segment index safely in the object store

	// unsaved is set by every event journaled, or replayed by Recover,
	// since the rank's last SaveStore: the journal then holds records
	// the directory objects do not.
	unsaved bool

	// segBase offsets this journal's segment indices into the rank's
	// object-name series. It is zero for a rank's first life; a
	// crash-restart starts a fresh journal whose indices begin at zero
	// again, so Restart sets segBase past the recovered objects to keep
	// the on-store series append-only.
	segBase int
}

// segment is one sealed journal segment: its index in this journal and
// its event count.
type segment struct {
	index  int
	events int
}

// queued is a sealed segment awaiting dispatch with its encoded image,
// which is the segment object's content byte for byte. The queue holds
// the image until its write is sent; the object store owns it after that.
type queued struct {
	segment
	data []byte
}

func newStreamState(s *Server) *streamState {
	return &streamState{s: s, flushedSeg: -1}
}

// record journals a successful mutation. Runs in the requesting client's
// process, off the MDS CPU. A create or mkdir carries the inode the rank
// assigned: replay reinstalls it and never allocates, so every later
// event naming that inode as its parent still finds it.
func (st *streamState) record(p runtime.Task, req *Request, reply *Reply) {
	ev, ok := requestEvent(req, reply)
	if !ok || !st.journalEvent(ev) {
		return
	}
	if rec := p.Runtime().Tracer(); rec != nil {
		rec.Record(int64(p.Now()), st.s.ep.Name(), "journal", "journal.append", "")
	}
}

// journalEvent stamps ev with the rank's next sequence number, encodes it
// into the open segment, counts it, and seals and queues the segment for
// dispatch when it reaches SegmentEvents. It is the one journal append on
// a rank. An invalid event is not journaled, and it reports false.
func (st *streamState) journalEvent(ev journal.Event) bool {
	if st.open == nil {
		st.open = journal.AppendHeader(make([]byte, 0, max(st.segCap, journal.MagicLen)))
	}
	ev.Seq = st.nextSeq
	data, err := st.enc.AppendEvent(st.open, &ev)
	if err != nil {
		return false
	}
	st.open = data
	st.openEvents++
	st.nextSeq++
	st.unsaved = true
	st.s.metrics.Journaled++
	if st.openEvents >= st.s.cfg.SegmentEvents {
		st.segCap = len(st.open) + len(st.open)/8
		st.seal()
		st.kick()
	}
	return true
}

// seal closes the open segment, if it holds any event, and queues it for
// dispatch.
func (st *streamState) seal() {
	if st.openEvents == 0 {
		return
	}
	seg := segment{index: st.nextIdx, events: st.openEvents}
	st.sealed = append(st.sealed, seg)
	st.queue = append(st.queue, queued{seg, st.open})
	st.open, st.openEvents = nil, 0
	st.nextIdx++
}

// events returns the number of untrimmed events.
func (st *streamState) events() int {
	n := st.openEvents
	for _, seg := range st.sealed {
		n += seg.events
	}
	return n
}

// requestEvent maps an RPC and its successful reply to the journal event.
// It reports false for an op that does not mutate.
func requestEvent(req *Request, reply *Reply) (journal.Event, bool) {
	switch req.Op {
	case OpCreate, OpMkdir:
		t := journal.EvCreate
		if req.Op == OpMkdir {
			t = journal.EvMkdir
		}
		return journal.Event{
			Type: t, Client: req.Client,
			Parent: uint64(req.Parent), Name: req.Name, Ino: uint64(reply.Ino),
			Mode: req.Mode, UID: req.UID, GID: req.GID,
		}, true
	case OpUnlink:
		return journal.Event{Type: journal.EvUnlink, Client: req.Client,
			Parent: uint64(req.Parent), Name: req.Name}, true
	case OpRename:
		return journal.Event{Type: journal.EvRename, Client: req.Client,
			Parent: uint64(req.Parent), Name: req.Name,
			NewParent: uint64(req.NewParent), NewName: req.NewName}, true
	case OpSetAttr:
		return journal.Event{Type: journal.EvSetAttr, Client: req.Client,
			Ino: uint64(req.Ino), Mode: req.Mode, UID: req.UID, GID: req.GID,
			Size: req.Size, Mtime: req.Mtime}, true
	}
	return journal.Event{}, false
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
	st.s.labelSelf("journal.dispatch")
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
				st.s.labelSelf("journal.segwrite")
				name := journalObjectName(st.s.rank, st.segBase+seg.index)
				nominal := int64(seg.events) * int64(st.s.cfg.JournalEventBytes)
				rec := wp.Runtime().Tracer()
				span := trace.SpanID(-1)
				if rec != nil {
					span = rec.Begin(int64(wp.Now()),
						st.s.ep.Name(), "journal", "journal.segwrite",
						trace.KV{Key: "object", Val: name})
				}
				// Charge the paper's 2.5 KB/event footprint; store
				// the real bytes.
				werr := striper.WriteBilled(wp, JournalPool, name, seg.data, nominal)
				rec.End(span, int64(wp.Now()))
				if werr != nil {
					// The segment is not safely down: leave flushedSeg
					// alone so trimming never drops its count. Nothing
					// re-sends a failed write, so the rank keeps no copy
					// of its bytes; the object store is their only owner.
					return
				}
				st.s.metrics.Dispatches++
				st.s.metrics.JournalBytes += uint64(nominal)
				if seg.index > st.flushedSeg {
					st.flushedSeg = seg.index
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
	s.stream.seal()
	s.stream.kick()
	// Wait for the dispatcher to drain.
	for s.stream.dispatching {
		p.Sleep(runtime.Duration(1e6)) // 1 ms poll
	}
}

// JournalLen returns the number of events in the MDS journal that have
// not been trimmed.
func (s *Server) JournalLen() int { return s.stream.events() }

// TrimJournal expires segments that are safe in the object store and
// whose updates have been applied to the metadata store.
func (s *Server) TrimJournal() {
	st := s.stream
	st.sealed = slices.DeleteFunc(st.sealed, func(seg segment) bool { return seg.index <= st.flushedSeg })
}

// SaveStore applies the in-memory metadata store to its RADOS
// representation: one object per directory, dentries in omap-style
// payloads (paper §IV-A). The journal can be trimmed afterwards.
func (s *Server) SaveStore(p runtime.Task) error {
	s.dom.Enter(p)
	defer s.dom.Leave(p)
	dirs, _, err := s.store.Subtree("/")
	if err == nil {
		_, err = s.saveDirs(p, dirs)
	}
	if err != nil {
		return fmt.Errorf("mds save: %w", err)
	}
	s.stream.unsaved = false
	s.TrimJournal()
	return nil
}

// saveDirs writes the directory objects of dirs to the metadata pool, in
// order, through one pipeline — one wait for the disk, not one per
// directory — and reports how many are durable: those written before the
// first error, none if the Flush that covers them failed. A directory
// this rank holds but does not own (Server.owns: a bound, an ancestor an
// import brought, a stale copy) is written only where the pool has no
// object for it (rados.Pipeline.Create): never over its owner's object,
// which would drop the owner's entries, yet always present, so that a
// recovery finds the parent of every directory object it installs.
func (s *Server) saveDirs(p runtime.Task, dirs []namespace.Ino) (saved int, err error) {
	all := s.rank == 0 && s.c.table.Empty() // nothing is placed: rank 0 owns every directory
	pl := s.obj.Pipeline()
	for _, ino := range dirs {
		var data []byte
		if data, err = s.store.EncodeDir(ino); err == nil {
			oid := rados.ObjectID{Pool: namespace.ObjectPool, Name: namespace.DirObjectName(ino)}
			if all || s.owns(ino) {
				err = pl.Write(p, oid, data)
			} else {
				err = pl.Create(p, oid, data)
			}
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

	// Load directory objects in listing order; InstallDirs puts parents
	// before children.
	names := s.obj.List(p, namespace.ObjectPool)
	objs := make([]*namespace.DirObject, 0, len(names))
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
	}
	if err := fresh.InstallDirs(objs); err != nil {
		return fmt.Errorf("mds recover: %w", err)
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
	s.stream.unsaved = s.stream.unsaved || nseg > 0
	return nil
}

func isReplayBenign(err error) bool {
	// Deletions already applied, creates already materialized.
	return err != nil && (errors.Is(err, namespace.ErrNotExist) || errors.Is(err, namespace.ErrExist))
}
