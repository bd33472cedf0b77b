package client

import (
	"errors"
	"fmt"

	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
	"cudele/internal/trace"
	"cudele/internal/transport"
)

// ClientJournalPool is the RADOS pool that Global Persist pushes client
// journals into.
const ClientJournalPool = "cudele_client_journals"

// Decouple detaches the subtree at path for exclusive local processing:
// the MDS attaches the policy, grants an inode range, and the client
// starts an in-memory journal (paper §III). Subsequent Local* operations
// run entirely client-side via Append Client Journal.
func (c *Client) Decouple(p runtime.Task, path string, pol *policy.Policy) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	r := c.svc.Post(p, &mds.DecoupleMsg{Path: path, Policy: pol, Client: c.name}).(*mds.DecoupleReply)
	if r.Err != nil {
		return r.Err
	}
	return c.AdoptGrant(p, path, r.Lo, r.N)
}

// AdoptGrant attaches a decoupled subtree whose policy and inode grant
// were registered externally — normally by the monitor on the client's
// behalf (paper §III-C).
func (c *Client) AdoptGrant(p runtime.Task, path string, lo namespace.Ino, n uint64) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	root, err := c.Resolve(p, path)
	if err != nil {
		return err
	}
	c.dec = &decoupled{
		path:    path,
		root:    root,
		jrnl:    journal.New(c.cfg.SegmentEvents),
		grantLo: uint64(lo),
		grantN:  n,
		store:   namespace.NewStore(),
	}
	c.sync = syncState{}
	return nil
}

// Decoupled reports whether the client has a decoupled subtree.
func (c *Client) Decoupled() bool { return c.dec != nil }

// DecoupledRoot returns the global inode of the decoupled subtree's root.
func (c *Client) DecoupledRoot() (namespace.Ino, error) {
	if c.dec == nil {
		return 0, ErrNotDecoupled
	}
	return c.dec.root, nil
}

// Journal returns the client's in-memory journal (Append Client Journal's
// backing store).
func (c *Client) Journal() (*journal.Journal, error) {
	if c.dec == nil {
		return nil, ErrNotDecoupled
	}
	return c.dec.jrnl, nil
}

// JournalNominalBytes returns the journal's transfer footprint at the
// paper's ~2.5 KB per update.
func (c *Client) JournalNominalBytes() int64 {
	if c.dec == nil {
		return 0
	}
	return int64(c.dec.jrnl.Len()) * int64(c.cfg.JournalEventBytes)
}

// JournalEvents returns a snapshot of the decoupled journal's events in
// append order. The chaos harness captures merge batches with it so it
// can replay merge-order permutations offline.
func (c *Client) JournalEvents() ([]*journal.Event, error) {
	if c.dec == nil {
		return nil, ErrNotDecoupled
	}
	return c.dec.jrnl.Events(), nil
}

// allocIno draws the next inode number from the subtree grant.
func (d *decoupled) allocIno() (uint64, error) {
	if d.next >= d.grantN {
		return 0, fmt.Errorf("%w: %d inodes used", ErrNoInodes, d.grantN)
	}
	ino := d.grantLo + d.next
	d.next++
	return ino, nil
}

// InodesLeft returns the unused portion of the inode grant.
func (c *Client) InodesLeft() uint64 {
	if c.dec == nil {
		return 0
	}
	return c.dec.grantN - c.dec.next
}

// localParent maps a decoupled-namespace inode to the client-local image:
// the subtree root maps to the local root; locally created directories
// map to themselves (they use granted global numbers in both).
func (d *decoupled) localParent(dir namespace.Ino) namespace.Ino {
	if dir == d.root {
		return namespace.RootIno
	}
	return dir
}

// globalParent maps a local-image inode back to the global namespace.
func (d *decoupled) globalParent(dir namespace.Ino) uint64 {
	if dir == namespace.RootIno {
		return uint64(d.root)
	}
	return uint64(dir)
}

// appendEvent charges the Append Client Journal cost and records the
// event. Events are not checked against the global namespace — the
// metadata server will blindly apply them at merge time (paper §III-A).
func (c *Client) appendEvent(p runtime.Task, ev *journal.Event) error {
	// Guarded, not left to Begin and End's own nil checks: their time
	// arguments are evaluated first, and on the real backend each is a
	// clock read per append.
	rec := c.eng.Tracer()
	var span trace.SpanID
	if rec != nil {
		span = rec.Begin(int64(p.Now()), c.name, "journal", "journal.append")
	}
	p.Sleep(c.cfg.ClientAppendTime)
	if rec != nil {
		rec.End(span, int64(p.Now()))
	}
	ev.Client = c.name
	if _, err := c.dec.jrnl.Append(ev); err != nil {
		return err
	}
	c.stats.Appends++
	return nil
}

// LocalCreate creates a file in the decoupled subtree: a local-image
// insert plus a journal append. dir is the subtree root or a directory
// previously created with LocalMkdir.
func (c *Client) LocalCreate(p runtime.Task, dir namespace.Ino, name string, mode uint32) (namespace.Ino, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return 0, ErrNotDecoupled
	}
	ino, err := c.dec.allocIno()
	if err != nil {
		return 0, err
	}
	if _, err := c.dec.store.Create(c.dec.localParent(dir), name,
		namespace.CreateAttrs{Ino: namespace.Ino(ino), Mode: mode}); err != nil {
		return 0, err
	}
	ev := &journal.Event{
		Type: journal.EvCreate, Ino: ino,
		Parent: c.dec.globalParent(dir), Name: name, Mode: mode,
		Mtime: int64(p.Now()),
	}
	if err := c.appendEvent(p, ev); err != nil {
		return 0, err
	}
	if err := c.recordUndo(ev, nil); err != nil {
		return 0, err
	}
	c.stats.Creates++
	return namespace.Ino(ino), nil
}

// LocalMkdir creates a directory in the decoupled subtree.
func (c *Client) LocalMkdir(p runtime.Task, dir namespace.Ino, name string, mode uint32) (namespace.Ino, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return 0, ErrNotDecoupled
	}
	ino, err := c.dec.allocIno()
	if err != nil {
		return 0, err
	}
	if _, err := c.dec.store.Mkdir(c.dec.localParent(dir), name,
		namespace.CreateAttrs{Ino: namespace.Ino(ino), Mode: mode}); err != nil {
		return 0, err
	}
	ev := &journal.Event{
		Type: journal.EvMkdir, Ino: ino,
		Parent: c.dec.globalParent(dir), Name: name, Mode: mode,
		Mtime: int64(p.Now()),
	}
	if err := c.appendEvent(p, ev); err != nil {
		return 0, err
	}
	if err := c.recordUndo(ev, nil); err != nil {
		return 0, err
	}
	return namespace.Ino(ino), nil
}

// LocalUnlink removes a file from the decoupled subtree. The event is
// timestamped so unlink/create races resolve deterministically in the
// strong-eventual cell; the stamp changes no calibrated cost (transfers
// bill at nominal bytes, not encoded bytes).
func (c *Client) LocalUnlink(p runtime.Task, dir namespace.Ino, name string) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return ErrNotDecoupled
	}
	victim, err := c.dec.store.Lookup(c.dec.localParent(dir), name)
	if err != nil {
		return err
	}
	vcopy := *victim
	if err := c.dec.store.Unlink(c.dec.localParent(dir), name); err != nil {
		return err
	}
	ev := &journal.Event{
		Type: journal.EvUnlink, Parent: c.dec.globalParent(dir), Name: name,
		Mtime: int64(p.Now()),
	}
	if err := c.appendEvent(p, ev); err != nil {
		return err
	}
	return c.recordUndo(ev, &vcopy)
}

// LocalLookup resolves one dentry in the client-local image of the
// decoupled subtree — the view speculative rollback edits.
func (c *Client) LocalLookup(dir namespace.Ino, name string) (namespace.Ino, error) {
	if c.dec == nil {
		return 0, ErrNotDecoupled
	}
	in, err := c.dec.store.Lookup(c.dec.localParent(dir), name)
	if err != nil {
		return 0, err
	}
	return in.Ino, nil
}

// LocalReadDir lists a decoupled directory from the client-local image —
// no RPC needed. The slice is the local store's listing snapshot, under
// the same read-only contract as ReadDir's.
func (c *Client) LocalReadDir(dir namespace.Ino) ([]string, error) {
	if c.dec == nil {
		return nil, ErrNotDecoupled
	}
	return c.dec.store.ReadDir(c.dec.localParent(dir))
}

// --- Mechanisms (paper §III-A) ---

// VolatileApply ships the client journal to the MDS and replays it onto
// the in-memory metadata store. On success the journal is cleared (the
// updates now live in the global namespace).
//
// With MergeChunkEvents 0 (the calibrated default) the journal goes as
// one message and merges as one job — the paper's all-at-once arrival
// model. A positive chunk size streams it instead: chunks flow through
// the MDS merge scheduler under windowed flow control, and peak transfer
// memory is one chunk, not the journal.
func (c *Client) VolatileApply(p runtime.Task) (int, error) {
	r := c.merge(p, mds.MergeBlind)
	return r.Applied, r.Err
}

// merge is the one merge mechanism behind VolatileApply, SpeculativeApply
// and ConvergeApply: ship the journal in the given mode, undo locally
// whatever the MDS rejected, and only then clear the journal and the
// undo log — together, so the two stay index for index. An error leaves
// both as they were.
func (c *Client) merge(p runtime.Task, mode mds.MergeMode) *mds.MergeReply {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return &mds.MergeReply{Err: ErrNotDecoupled}
	}
	if mode == mds.MergeSpeculative && c.dec.mode != policy.ConsSpeculative {
		return &mds.MergeReply{Err: fmt.Errorf("client: speculative apply in %v mode", c.dec.mode)}
	}
	ops := c.dec.jrnl.Len()
	var r *mds.MergeReply
	if chunk := c.cfg.MergeChunkEvents; mode == mds.MergeBlind && chunk > 0 && ops > 0 {
		r = c.streamJournal(p, chunk)
	} else {
		r = c.shipJournal(p, mode)
	}
	if r.Err == nil {
		r.Err = c.rollbackSpec(ops, r.Conflicts)
	}
	if r.Err == nil {
		c.dec.jrnl.Reset()
		if c.dec.undo != nil {
			c.dec.undo.Reset()
		}
	}
	return r
}

// shipJournal is the one-shot arrival model: the whole journal in one
// MergeMsg, applied by the MDS in the given mode. The MDS pulls the
// events through a cursor while the call blocks, so no flat copy of the
// journal is made.
func (c *Client) shipJournal(p runtime.Task, mode mds.MergeMode) *mds.MergeReply {
	bytes := c.JournalNominalBytes()
	c.noteTransfer(bytes)
	var r *mds.MergeReply
	c.followRedirects(p, func() error {
		// A bounced merge never ran, so the journal is untouched and a
		// retry ships it again from the start.
		r = c.svc.Post(p, &mds.MergeMsg{
			Source:       c.dec.jrnl.InlineCursor(),
			NominalBytes: bytes,
			Mode:         mode,
			Route:        c.dec.path,
		}).(*mds.MergeReply)
		return r.Err
	})
	return r
}

// streamJournal is the streamed merge: open (with admission
// backpressure), send windowed chunks, wait for the drain.
func (c *Client) streamJournal(p runtime.Task, chunk int) *mds.MergeReply {
	evBytes := int64(c.cfg.JournalEventBytes)
	var open *mds.MergeOpenReply
	// A bounced open retries against refreshed routing; once admitted the
	// stream cannot be bounced mid-flight (a merge in progress blocks the
	// subtree's freeze).
	c.followRedirects(p, func() error {
		open = transport.SendWindowed(p, c.svc, &mds.MergeOpenMsg{
			Client:      c.name,
			Route:       c.dec.path,
			TotalEvents: c.dec.jrnl.Len(),
			TotalBytes:  c.JournalNominalBytes(),
		}, c.cfg.MergeRetryDelay).(*mds.MergeOpenReply)
		return open.Err
	})
	if open.Err != nil {
		return &mds.MergeReply{Err: open.Err}
	}
	cur := c.dec.jrnl.Cursor()
	for seq := 0; cur.Remaining() > 0; seq++ {
		evs := cur.Next(chunk)
		bytes := int64(len(evs)) * evBytes
		c.noteTransfer(bytes)
		r := transport.SendWindowed(p, c.svc, &mds.MergeChunkMsg{
			StreamInfo: transport.StreamInfo{
				ID: open.ID, Seq: seq,
				Items: len(evs), Bytes: bytes,
				Last: cur.Remaining() == 0,
			},
			Route:  c.dec.path,
			Events: evs,
		}, c.cfg.MergeRetryDelay).(*mds.MergeChunkReply)
		if r.Err != nil {
			// Abandoning the stream without telling the MDS would leave
			// the admitted job parked in the scheduler forever, holding
			// its admission slot and inflating the merge queue for the
			// rest of the run.
			c.svc.Post(p, &mds.MergeAbortMsg{ID: open.ID, Route: c.dec.path})
			return &mds.MergeReply{Err: r.Err}
		}
	}
	return c.svc.Post(p, &mds.MergeWaitMsg{ID: open.ID, Route: c.dec.path}).(*mds.MergeReply)
}

// persistChunk is the persist mechanisms' chunk length in events:
// MergeChunkEvents, or — streaming off, the calibrated default — the
// whole journal, so a one-shot persist is a persist of one chunk.
func (c *Client) persistChunk() int {
	if n := c.cfg.MergeChunkEvents; n > 0 {
		return n
	}
	return c.dec.jrnl.Len()
}

// LocalPersist serializes the journal to the client's local disk. The
// transfer cost is the disk's write bandwidth over the journal's nominal
// footprint (paper §III-A), billed one chunk at a time. The image is
// encoded into a fresh buffer and installed only once the whole encode
// has succeeded, so a failed persist leaves the previous recovery image
// untouched.
func (c *Client) LocalPersist(p runtime.Task) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return ErrNotDecoupled
	}
	data, err := c.dec.jrnl.Export()
	if err != nil {
		return err
	}
	// At least one pass, so an empty journal still touches the disk.
	chunk, evBytes := c.persistChunk(), int64(c.cfg.JournalEventBytes)
	for first, left := true, c.dec.jrnl.Len(); first || left > 0; first, left = false, left-chunk {
		bytes := int64(min(left, chunk)) * evBytes
		c.noteTransfer(bytes)
		c.chargeLocalDisk(p, bytes)
	}
	c.localFiles["journal"] = data
	if err := c.persistUndoLocal(p); err != nil {
		return err
	}
	return c.persistLocal(p, data)
}

// LocalJournalFile returns the bytes written by LocalPersist, as a
// recovering client would read them back.
func (c *Client) LocalJournalFile() ([]byte, bool) {
	b, ok := c.localFiles["journal"]
	return b, ok
}

// RecoverLocal reloads a persisted journal from local disk into a fresh
// decoupled context, as a client restarting after a failure would
// (paper §II-A: local durability means updates survive if the node
// recovers).
func (c *Client) RecoverLocal(p runtime.Task) (int, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return 0, ErrNotDecoupled
	}
	// With a real local directory, recovery reads the committed file —
	// what actually survived — and falls back to memory otherwise.
	data, ok, err := c.loadLocal(p)
	if err != nil {
		return 0, err
	}
	if !ok {
		if data, ok = c.localFiles["journal"]; !ok {
			return 0, errors.New("client: no persisted journal")
		}
	}
	c.chargeLocalDisk(p, int64(len(data)))
	j, err := journal.Import(data, c.cfg.SegmentEvents)
	if err != nil {
		return 0, err
	}
	c.dec.jrnl = j
	// Speculative mode rebuilds the local image and undo log from the
	// recovered journal itself: the ops are the authoritative record, so
	// a torn or missing persisted undo image cannot corrupt recovery.
	if c.dec.mode == policy.ConsSpeculative {
		if err := c.rebuildSpeculative(); err != nil {
			return 0, err
		}
	}
	return j.Len(), nil
}

// journalChunkName is the logical object name of chunk idx of owner's
// globally persisted journal: the head under the bare owner name, the
// tail under numbered names beside it.
func journalChunkName(owner string, idx int) string {
	if idx == 0 {
		return owner
	}
	return fmt.Sprintf("%s/c%06d", owner, idx)
}

// GlobalPersist pushes the serialized journal into the object store,
// each chunk striped in parallel to exploit the cluster's collective
// bandwidth (paper §V-A). The persisted image has one layout, written
// here and read by FetchGlobalJournal: a head chunk carrying the file
// header — written even for an empty journal, so the name exists — then
// a tail of further chunks, whose concatenation decodes as one journal
// file. With streaming off the head is the whole image.
func (c *Client) GlobalPersist(p runtime.Task) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return ErrNotDecoupled
	}
	striper := rados.NewStriper(c.obj)
	chunk, evBytes := c.persistChunk(), int64(c.cfg.JournalEventBytes)
	cur := c.dec.jrnl.InlineCursor()
	idx := 0
	for left := c.dec.jrnl.Len(); idx == 0 || left > 0; idx, left = idx+1, left-chunk {
		n := min(left, chunk)
		buf, err := cur.Export(n, idx == 0)
		if err != nil {
			return err
		}
		bytes := int64(n) * evBytes
		c.noteTransfer(bytes)
		if err := striper.WriteBilled(p, ClientJournalPool, journalChunkName(c.name, idx), buf, bytes); err != nil {
			return fmt.Errorf("global persist: %w", err)
		}
	}
	// Trim the tail an earlier, longer persist left beyond the chunks just
	// written: the reader would append it to the image and decode phantom
	// events. Probing a name that does not exist is free, so a persist
	// with nothing stale charges no extra time.
	for ; ; idx++ {
		if err := striper.Remove(p, ClientJournalPool, journalChunkName(c.name, idx)); err != nil {
			if errors.Is(err, rados.ErrNotFound) {
				break
			}
			return err
		}
	}
	return c.persistUndoGlobal(p, striper)
}

// FetchGlobalJournal reads back a journal persisted by GlobalPersist:
// the head chunk, then tail chunks up to the first gap.
func (c *Client) FetchGlobalJournal(p runtime.Task, owner string) ([]*journal.Event, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	striper := rados.NewStriper(c.obj)
	image, err := striper.Read(p, ClientJournalPool, owner)
	if err != nil {
		return nil, err
	}
	for idx := 1; ; idx++ {
		part, err := striper.Read(p, ClientJournalPool, journalChunkName(owner, idx))
		if errors.Is(err, rados.ErrNotFound) {
			break
		}
		if err != nil {
			return nil, err
		}
		image = append(image, part...)
	}
	return journal.Decode(image)
}

// NonvolatileApply replays the client journal onto the metadata store in
// the object store. For every update it pulls the affected directory
// object and the root object, applies the update, and pushes both back —
// the repeated read-modify-write the paper measures at 78x (§V-A). Pulls
// and pushes are charged at omap granularity (the affected dentry), since
// the dominant cost is the four object-store round trips per update, not
// bandwidth. After the last update the materialized directory objects are
// written out so a restarted metadata server (Server.Recover) observes
// the merged namespace. Every push goes through one pipeline: the
// mechanism is acknowledged when it returns, so it waits for the disk
// once, and the journal is cleared only after that Flush — a crash or a
// failed Flush leaves the journal, and a re-run replays it over whatever
// prefix of the pushes survived.
func (c *Client) NonvolatileApply(p runtime.Task) (int, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return 0, ErrNotDecoupled
	}
	shadow := namespace.NewStore()
	rootOID := dirObject(namespace.RootIno)
	if err := c.loadChain(p, shadow, namespace.RootIno); err != nil {
		return 0, err
	}

	// Iterate the journal through a bounded-memory cursor: the run length
	// only bounds the gather buffer — every per-event cost below is
	// charged identically regardless of where runs fall.
	const run = 256
	applied := 0
	// touched holds the directories the final pass writes out, each of
	// them loaded from its object above or below, or made by the journal.
	touched := map[namespace.Ino]bool{namespace.RootIno: true}
	pl := c.obj.Pipeline()
	cur := c.dec.jrnl.InlineCursor()
	for evs := cur.Next(run); evs != nil; evs = cur.Next(run) {
		for _, ev := range evs {
			dirIno := namespace.Ino(ev.Parent)
			dirOID := dirObject(dirIno)

			// Make sure the affected directory is materialized in the
			// shadow store: first touch loads its object and the ancestor
			// chain. That its inode is there is not enough — its parent's
			// object put it there, empty, and writing that image out would
			// drop every entry the directory already held.
			if !touched[dirIno] {
				if err := c.loadChain(p, shadow, dirIno); err != nil {
					return applied, err
				}
			}

			// Pull both objects that may be affected — every update, as
			// the journal tool does (paper §V-A): the experiment
			// directory and the root.
			c.obj.OmapGet(p, dirOID, ev.Name)
			c.obj.OmapGet(p, rootOID, "rstat")

			if err := shadow.ApplyEvent(ev); err != nil {
				return applied, fmt.Errorf("nonvolatile apply: %w", err)
			}
			applied++
			touched[dirIno] = true
			if ev.Type == journal.EvMkdir {
				touched[namespace.Ino(ev.Ino)] = true
			}

			// Push both back (the updated dentry and the root's recursive
			// stats).
			if err := pl.OmapSet(p, dirOID,
				map[string][]byte{ev.Name: encodeDentry(shadow, dirIno, ev.Name)}); err != nil {
				return applied, fmt.Errorf("nonvolatile apply: %w", err)
			}
			if err := pl.OmapSet(p, rootOID,
				map[string][]byte{"rstat": rstat(shadow)}); err != nil {
				return applied, fmt.Errorf("nonvolatile apply: %w", err)
			}
		}
	}

	// Materialize the final directory objects for recovery.
	for ino := range touched {
		data, err := shadow.EncodeDir(ino)
		if err != nil {
			continue // removed by the journal, or touched only as a file's parent
		}
		if err := pl.Write(p, dirObject(ino), data); err != nil {
			return applied, fmt.Errorf("nonvolatile apply: %w", err)
		}
	}
	if err := pl.Flush(p); err != nil {
		return applied, fmt.Errorf("nonvolatile apply: %w", err)
	}
	c.dec.jrnl.Reset()
	return applied, nil
}

// dirObject names the metadata-pool object that holds directory ino.
func dirObject(ino namespace.Ino) rados.ObjectID {
	return rados.ObjectID{Pool: namespace.ObjectPool, Name: namespace.DirObjectName(ino)}
}

// encodeDentry renders one dentry's omap value for the push-back.
func encodeDentry(s *namespace.Store, dir namespace.Ino, name string) []byte {
	in := s.Child(dir, name)
	if in == nil {
		return []byte("tombstone")
	}
	return []byte(fmt.Sprintf("ino=%d type=%v mode=%o", in.Ino, in.Type, in.Mode))
}

// rstat renders the root's recursive statistics omap value.
func rstat(s *namespace.Store) []byte {
	return []byte(fmt.Sprintf("inodes=%d version=%d", s.Len(), s.Version()))
}

// maxChainDepth bounds the ancestor walk of loadChain. A real namespace
// never approaches it; corrupt directory objects whose Parent pointers
// form an absurdly long — or infinite — chain must not hang the client.
const maxChainDepth = 4096

// loadChain materializes directory ino in the shadow store from its
// object, first loading any missing ancestors. The walk is iterative:
// objects are collected leaf-to-root, then installed root-first, so chain
// depth costs no stack. Only a leaf with no object is an empty start (the
// journal is about to create it): replaying over a directory that failed
// to read or decode would end by writing back an image without the
// entries it held, so that is an error, as are a missing ancestor, a
// cycle in Parent pointers (corrupt objects) and a chain past
// maxChainDepth.
func (c *Client) loadChain(p runtime.Task, shadow *namespace.Store, ino namespace.Ino) error {
	var chain []*namespace.DirObject
	seen := map[namespace.Ino]bool{}
	for {
		data, err := c.obj.Read(p, dirObject(ino))
		if len(chain) == 0 && errors.Is(err, rados.ErrNotFound) {
			return nil
		}
		var obj *namespace.DirObject
		if err == nil {
			obj, err = namespace.DecodeDir(data)
		}
		if err != nil {
			return fmt.Errorf("nonvolatile apply: directory object %d: %w", ino, err)
		}
		seen[obj.Ino] = true
		chain = append(chain, obj)
		if obj.Ino == namespace.RootIno {
			break
		}
		if _, err := shadow.Get(obj.Parent); err == nil {
			break // ancestor already materialized
		}
		if seen[obj.Parent] {
			return fmt.Errorf("nonvolatile apply: ancestor cycle at %d: %w", obj.Parent, namespace.ErrInval)
		}
		if len(chain) >= maxChainDepth {
			return fmt.Errorf("nonvolatile apply: ancestor chain deeper than %d at %d: %w",
				maxChainDepth, obj.Ino, namespace.ErrInval)
		}
		ino = obj.Parent
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if err := shadow.InstallDir(chain[i]); err != nil {
			return err
		}
	}
	return nil
}

// RunComposition executes a policy composition: steps in sequence,
// mechanisms within a step in parallel (paper §III-B). RPCs and Append
// Client Journal are workload-time mechanisms, not completion-time ones,
// so they are no-ops here; Stream is an MDS-side setting owned by the
// composition — set on iff the composition contains it, so a previous
// streaming composition cannot leak journaling into this one.
func (c *Client) RunComposition(p runtime.Task, comp policy.Composition) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	c.svc.SetStream(comp.Contains(policy.MechStream))
	for _, step := range comp {
		if len(step.Parallel) == 1 {
			if err := c.runMechanism(p, step.Parallel[0]); err != nil {
				return err
			}
			continue
		}
		g := c.dom.NewGroup()
		errs := make([]error, len(step.Parallel))
		for i, m := range step.Parallel {
			i, m := i, m
			g.Go("mech."+m.String(), func(sp runtime.Task) {
				errs[i] = c.runMechanism(sp, m)
			})
		}
		g.Wait(p)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Client) runMechanism(p runtime.Task, m policy.Mechanism) error {
	switch m {
	case policy.MechRPCs, policy.MechAppendClientJournal:
		// Workload-time mechanisms; nothing to do at completion time.
		return nil
	case policy.MechStream:
		// Stream state is set for the whole composition by
		// RunComposition before any step runs.
		return nil
	case policy.MechVolatileApply:
		_, err := c.VolatileApply(p)
		return err
	case policy.MechNonvolatileApply:
		_, err := c.NonvolatileApply(p)
		return err
	case policy.MechLocalPersist:
		return c.LocalPersist(p)
	case policy.MechGlobalPersist:
		return c.GlobalPersist(p)
	case policy.MechSpeculativeApply:
		_, _, err := c.SpeculativeApply(p)
		return err
	case policy.MechConvergeApply:
		_, err := c.ConvergeApply(p)
		return err
	}
	return fmt.Errorf("client: unknown mechanism %v", m)
}
