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

// AdoptGrant detaches the subtree at path for exclusive local
// processing, on the registration the monitor made on the client's behalf
// (paper §III-C): the client starts an in-memory journal, and subsequent
// Local* operations run entirely client-side via Append Client Journal,
// drawing inodes from reg's grant. Merge merges in reg's consistency
// cell.
func (c *Client) AdoptGrant(p runtime.Task, path string, reg *policy.Policy) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	root, err := c.Resolve(p, path)
	if err != nil {
		return err
	}
	c.dec = &decoupled{
		path:  path,
		root:  root,
		jrnl:  journal.New(c.cfg.SegmentEvents),
		reg:   reg,
		store: namespace.NewStore(),
	}
	c.sync = syncState{}
	return nil
}

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
	if d.next >= d.reg.GrantN {
		return 0, fmt.Errorf("%w: %d inodes used", ErrNoInodes, d.reg.GrantN)
	}
	ino := d.reg.GrantLo + d.next
	d.next++
	return ino, nil
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
// event, and in the speculative cell its pre-image beside it, so the
// journal and the pre-images stay index for index. Events are not
// checked against the global namespace — the metadata server will
// blindly apply them at merge time (paper §III-A).
func (c *Client) appendEvent(p runtime.Task, ev *journal.Event, pre *namespace.Inode) error {
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
	if c.dec.reg.Consistency == policy.ConsSpeculative {
		c.dec.undo = append(c.dec.undo, pre)
	}
	c.stats.Appends++
	return nil
}

// applyAndAppend is a Local* operation's body: apply ev to the
// client-local image, then journal it.
func (c *Client) applyAndAppend(p runtime.Task, ev *journal.Event) error {
	pre, err := c.dec.applyLocal(ev)
	if err != nil {
		return err
	}
	return c.appendEvent(p, ev, pre)
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
	if err := c.applyAndAppend(p, &journal.Event{
		Type: journal.EvCreate, Ino: ino,
		Parent: c.dec.globalParent(dir), Name: name, Mode: mode,
		Mtime: int64(p.Now()),
	}); err != nil {
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
	if err := c.applyAndAppend(p, &journal.Event{
		Type: journal.EvMkdir, Ino: ino,
		Parent: c.dec.globalParent(dir), Name: name, Mode: mode,
		Mtime: int64(p.Now()),
	}); err != nil {
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
	return c.applyAndAppend(p, &journal.Event{
		Type: journal.EvUnlink, Parent: c.dec.globalParent(dir), Name: name,
		Mtime: int64(p.Now()),
	})
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

// --- Mechanisms (paper §III-A) ---

// Merge ships the client journal to the MDS and merges it in the
// consistency cell the subtree was registered in (AdoptGrant): blind —
// Table I's Volatile Apply — in the invisible, weak and strong cells,
// validated in the speculative cell, and through the CRDT resolver in
// the strong-eventual cell. applied counts the events merged (a
// converging merge counts every event, tie-break losers too); rejected
// lists the journal indices a validated merge refused, which Merge has
// rolled back from the local image, newest first. Only then are the
// journal and its pre-images cleared; an error leaves both as they were.
//
// A blind merge with MergeChunkEvents 0 (the calibrated default) ships
// the journal as one message and merges it as one job — the paper's
// all-at-once arrival model. A positive chunk size streams it instead:
// chunks flow through the MDS merge scheduler under windowed flow
// control, and peak transfer memory is one chunk, not the journal.
func (c *Client) Merge(p runtime.Task) (applied int, rejected []int, err error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return 0, nil, ErrNotDecoupled
	}
	ops := c.dec.jrnl.Len()
	var r *mds.MergeReply
	if chunk, cell := c.cfg.MergeChunkEvents, c.dec.reg.Consistency; chunk > 0 && ops > 0 &&
		cell != policy.ConsSpeculative && cell != policy.ConsStrongEventual {
		r = c.streamJournal(p, chunk)
	} else {
		r = c.shipJournal(p)
	}
	if r.Err == nil {
		r.Err = c.rollbackSpec(ops, r.Conflicts)
	}
	if r.Err == nil {
		c.dec.clearJournal()
	}
	return r.Applied, r.Conflicts, r.Err
}

// shipJournal is the one-shot arrival model: the whole journal in one
// MergeMsg, applied by the MDS in the registered cell. The MDS pulls the
// events through a cursor while the call blocks, so no flat copy of the
// journal is made.
func (c *Client) shipJournal(p runtime.Task) *mds.MergeReply {
	bytes := c.JournalNominalBytes()
	c.noteTransfer(bytes)
	var r *mds.MergeReply
	c.followRedirects(p, func() error {
		// A bounced merge never ran, so the journal is untouched and a
		// retry ships it again from the start.
		r = c.svc.Post(p, &mds.MergeMsg{
			Source:       c.dec.jrnl.InlineCursor(),
			NominalBytes: bytes,
			Cell:         c.dec.reg.Consistency,
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
	// A bounced open retries against the current routing; once admitted the
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
// encoded into a fresh buffer and installed as the recovery image only
// once it is durable, so a failed persist leaves the previous recovery
// image untouched.
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
	if err := c.persistLocal(p, data); err != nil {
		return err
	}
	c.localJournal = data
	return nil
}

// LocalJournalFile returns the bytes written by LocalPersist, as a
// recovering client would read them back.
func (c *Client) LocalJournalFile() ([]byte, bool) {
	return c.localJournal, c.localJournal != nil
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
		if data = c.localJournal; data == nil {
			return 0, errors.New("client: no persisted journal")
		}
	}
	c.chargeLocalDisk(p, int64(len(data)))
	j, err := journal.Import(data, c.cfg.SegmentEvents)
	if err != nil {
		return 0, err
	}
	// The speculative cell rebuilds the local image and the pre-images from
	// the recovered journal itself: the ops are the record. The rebuild
	// runs on a copy of the context, installed whole only once it
	// succeeds, so a failed recovery leaves the context as it found it
	// rather than a journal beside fewer pre-images.
	next := *c.dec
	next.jrnl = j
	if next.reg.Consistency == policy.ConsSpeculative {
		if err := next.rebuildSpeculative(); err != nil {
			return 0, err
		}
	}
	*c.dec = next
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
	return nil
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

	// Materialize the final directory objects for recovery, parents
	// first. A touched directory the journal removed is not in the walk.
	dirs, _, err := shadow.Subtree("/")
	if err != nil {
		return applied, fmt.Errorf("nonvolatile apply: %w", err)
	}
	for _, ino := range dirs {
		if !touched[ino] {
			continue
		}
		data, err := shadow.EncodeDir(ino)
		if err == nil {
			err = pl.Write(p, dirObject(ino), data)
		}
		if err != nil {
			return applied, fmt.Errorf("nonvolatile apply: %w", err)
		}
	}
	if err := pl.Flush(p); err != nil {
		return applied, fmt.Errorf("nonvolatile apply: %w", err)
	}
	c.dec.clearJournal()
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
// objects are collected leaf-to-root, then InstallDirs installs them
// root-first, so chain depth costs no stack. Only a leaf with no object
// is an empty start (the journal is about to create it): replaying over
// a directory that failed to read or decode would end by writing back an
// image without the entries it held, so that is an error, as are a
// missing ancestor, a cycle in Parent pointers (corrupt objects) and a
// chain past maxChainDepth.
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
	return shadow.InstallDirs(chain)
}

// RunComposition executes a policy composition: steps in sequence,
// mechanisms within a step in parallel (paper §III-B). What each
// mechanism does is its row in the policy's mechanism table. RPCs, Append
// Client Journal and Stream act per operation, not at completion, so they
// are no-ops here: Stream is the subtree's, and the rank journals the RPC
// updates of every subtree whose registered composition contains it.
func (c *Client) RunComposition(p runtime.Task, comp policy.Composition) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
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
			g.Go("mech."+m.String(), func(sp runtime.Task) {
				errs[i] = c.runMechanism(sp, m)
			})
		}
		g.Wait(p)
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// runMechanism runs one completion-time mechanism by what its table row
// says it does: a merge into the object store (Nonvolatile Apply) or into
// the registered cell, or a persist at the durability it gives.
func (c *Client) runMechanism(p runtime.Task, m policy.Mechanism) error {
	merges, dur, atCompletion := m.Completion()
	switch {
	case !m.Valid():
		return fmt.Errorf("client: unknown mechanism %v", m)
	case !atCompletion:
		return nil
	case merges && dur == policy.DurGlobal:
		_, err := c.NonvolatileApply(p)
		return err
	case merges:
		_, _, err := c.Merge(p)
		return err
	case dur == policy.DurLocal:
		return c.LocalPersist(p)
	}
	return c.GlobalPersist(p)
}
