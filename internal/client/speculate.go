package client

import (
	"fmt"

	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/rados"
	"cudele/internal/runtime"
)

// The client halves of the two policy cells beyond the paper's Table I.
//
// ConsSpeculative: Local* ops apply optimistically against the client's
// predicted view and record a per-op undo entry; SpeculativeApply ships
// the journal, the MDS validates every prediction against the live global
// namespace, and the client rolls back exactly the rejected ops using the
// undo log. The undo log is derivable from the journal, so recovery
// rebuilds it rather than trusting a possibly-torn persisted copy.
//
// ConsStrongEventual: ConvergeApply ships the journal through the MDS's
// CRDT resolver, so concurrent clients can merge in any order and the
// global namespace converges.

// UndoObjectSuffix names the global-persist object carrying a
// speculative client's undo log, alongside its journal image.
const UndoObjectSuffix = "/undo"

// SetMergeMode selects the consistency cell for the decoupled subtree's
// merge path. ConsSpeculative starts the undo log; every other cell
// clears it. Called by the API layer right after Decouple/AdoptGrant.
func (c *Client) SetMergeMode(mode policy.Consistency) error {
	if c.dec == nil {
		return ErrNotDecoupled
	}
	c.dec.mode = mode
	if mode == policy.ConsSpeculative {
		if c.dec.undo == nil {
			c.dec.undo = journal.New(c.cfg.SegmentEvents)
		}
	} else {
		c.dec.undo = nil
	}
	return nil
}

// MergeMode reports the decoupled subtree's consistency cell.
func (c *Client) MergeMode() policy.Consistency {
	if c.dec == nil {
		return policy.ConsInvisible
	}
	return c.dec.mode
}

// recordUndo appends the undo entry of the journal op ev just appended:
// Mode carries the undone op's type and Size its journal index — the
// undo log is index for index with the journal, so that is the undo
// log's own next sequence number. victim is a copy of the inode the op
// removed or overwrote, nil when it did neither; its attributes ride
// along so rollback can put them back (journal.Event documents the
// fields). Undo appends are client-memory bookkeeping and charge no
// simulated time beyond the op's own append. No-op outside speculative
// mode, so every other cell's costs and bytes are untouched.
func (c *Client) recordUndo(ev *journal.Event, victim *namespace.Inode) error {
	if c.dec.mode != policy.ConsSpeculative || c.dec.undo == nil {
		return nil
	}
	u := &journal.Event{
		Type: journal.EvUndo, Client: c.name,
		Ino: ev.Ino, Parent: ev.Parent, Name: ev.Name,
		Mode: uint32(ev.Type), Size: c.dec.undo.NextSeq(),
	}
	if victim != nil {
		u.Ino, u.NewParent = uint64(victim.Ino), uint64(victim.Mode)
		u.UID, u.GID, u.Mtime = victim.UID, victim.GID, victim.Mtime
		if ev.Type == journal.EvSetAttr {
			// A setattr names no dentry: the record is named after the
			// inode, and Parent is free to carry the previous size.
			u.Name, u.Parent = victim.Name, victim.Size
		}
	}
	_, err := c.dec.undo.Append(u)
	return err
}

// UndoLog returns the client's undo journal (speculative mode only).
func (c *Client) UndoLog() (*journal.Journal, error) {
	if c.dec == nil {
		return nil, ErrNotDecoupled
	}
	if c.dec.undo == nil {
		return nil, fmt.Errorf("client: no undo log outside %v", policy.ConsSpeculative)
	}
	return c.dec.undo, nil
}

// FailRollbackAfter arms the mid-rollback crash hook: the next rollback
// errors out after n undos, leaving the journal and undo log un-reset,
// exactly as a process death there would. One-shot: the hook disarms
// when it fires.
func (c *Client) FailRollbackAfter(n int) {
	c.failRollback = &n
}

// SpeculativeApply ships the journal for validated merge. The MDS
// applies every op whose prediction still holds and reports the rejected
// indices; the client undoes exactly those ops against its local image,
// newest first, then clears the journal and undo log. The returned slice
// is the rejected indices (nil when every prediction held).
func (c *Client) SpeculativeApply(p runtime.Task) (int, []int, error) {
	r := c.merge(p, mds.MergeSpeculative)
	return r.Applied, r.Conflicts, r.Err
}

// rollbackSpec undoes the ops at the given indices of the journal just
// shipped (ops events long) from the client-local image, newest first so
// a rejected mkdir's rejected children are gone before the directory
// itself is removed. The journal and undo log are left intact on error
// (the mid-rollback crash shape); merge resets them only after a
// complete rollback.
func (c *Client) rollbackSpec(ops int, conflicts []int) error {
	if len(conflicts) == 0 {
		return nil
	}
	undos := c.dec.undo.Events()
	budget := -1
	if c.failRollback != nil {
		budget = *c.failRollback
		c.failRollback = nil
	}
	done := 0
	for i := len(conflicts) - 1; i >= 0; i-- {
		idx := conflicts[i]
		if idx < 0 || idx >= ops || idx >= len(undos) {
			return fmt.Errorf("client: rollback index %d out of range (%d ops, %d undos)",
				idx, ops, len(undos))
		}
		if budget >= 0 && done >= budget {
			return fmt.Errorf("client: crashed mid-rollback after %d undos", done)
		}
		u := undos[idx]
		if u.Size != uint64(idx) {
			return fmt.Errorf("client: undo record %d stamps op %d", idx, u.Size)
		}
		parent := c.dec.localParent(namespace.Ino(u.Parent))
		var err error
		switch journal.EventType(u.Mode) {
		case journal.EvCreate:
			err = c.dec.store.Unlink(parent, u.Name)
		case journal.EvMkdir:
			err = c.dec.store.Rmdir(parent, u.Name)
		case journal.EvUnlink:
			_, err = c.dec.store.Create(parent, u.Name, namespace.CreateAttrs{
				Ino: namespace.Ino(u.Ino), Mode: uint32(u.NewParent),
				UID: u.UID, GID: u.GID, Mtime: u.Mtime,
			})
		case journal.EvSetAttr:
			err = c.dec.store.SetAttr(namespace.Ino(u.Ino), uint32(u.NewParent), u.UID, u.GID, u.Parent, u.Mtime)
		default:
			err = fmt.Errorf("client: undo of %v not supported", journal.EventType(u.Mode))
		}
		if err != nil {
			return fmt.Errorf("client: rollback op %d: %w", idx, err)
		}
		done++
	}
	return nil
}

// rebuildSpeculative reconstructs the local image and undo log from the
// recovered journal after a crash. The journal is the authoritative
// record — a torn persisted undo image is irrelevant — and the rebuilt
// state re-enters the ordinary merge/validate/rollback cycle, so ops the
// MDS rejects are rolled back again rather than resurrected.
func (c *Client) rebuildSpeculative() error {
	c.dec.store = namespace.NewStore()
	c.dec.undo = journal.New(c.cfg.SegmentEvents)
	for idx, ev := range c.dec.jrnl.Events() {
		victim, err := c.dec.applyLocal(ev)
		if err == nil {
			err = c.recordUndo(ev, victim)
		}
		if err != nil {
			return fmt.Errorf("client: rebuild op %d: %w", idx, err)
		}
	}
	return nil
}

// applyLocal replays one journaled op onto the client-local image the
// way the Local* operation that journaled it applied it, and returns a
// copy of the inode the op removed or overwrote — what its undo record
// carries — nil for an op that did neither.
func (d *decoupled) applyLocal(ev *journal.Event) (victim *namespace.Inode, err error) {
	parent := d.localParent(namespace.Ino(ev.Parent))
	attrs := namespace.CreateAttrs{
		Ino: namespace.Ino(ev.Ino), Mode: ev.Mode, UID: ev.UID, GID: ev.GID, Mtime: ev.Mtime,
	}
	switch ev.Type {
	case journal.EvCreate:
		_, err = d.store.Create(parent, ev.Name, attrs)
	case journal.EvMkdir:
		_, err = d.store.Mkdir(parent, ev.Name, attrs)
	case journal.EvUnlink:
		if victim, err = d.store.Lookup(parent, ev.Name); err == nil {
			v := *victim
			victim, err = &v, d.store.Unlink(parent, ev.Name)
		}
	case journal.EvSetAttr:
		if victim, err = d.store.Get(namespace.Ino(ev.Ino)); err == nil {
			v := *victim
			victim, err = &v, d.store.SetAttr(v.Ino, ev.Mode, ev.UID, ev.GID, ev.Size, ev.Mtime)
		}
	default:
		err = fmt.Errorf("unexpected %v in speculative journal", ev.Type)
	}
	return victim, err
}

// exportUndo is the undo log's persisted image and its nominal size,
// noted as a transfer; ok is false outside speculative mode, so every
// other cell's persisted bytes and disk time are untouched.
func (c *Client) exportUndo() (data []byte, bytes int64, ok bool, err error) {
	if c.dec.mode != policy.ConsSpeculative || c.dec.undo == nil {
		return nil, 0, false, nil
	}
	if data, err = c.dec.undo.Export(); err != nil {
		return nil, 0, false, err
	}
	bytes = int64(c.dec.undo.Len()) * int64(c.cfg.JournalEventBytes)
	c.noteTransfer(bytes)
	return data, bytes, true, nil
}

// persistUndoLocal writes the undo log beside the locally persisted
// journal.
func (c *Client) persistUndoLocal(p runtime.Task) error {
	data, bytes, ok, err := c.exportUndo()
	if ok {
		c.chargeLocalDisk(p, bytes)
		c.localFiles["undo"] = data
	}
	return err
}

// persistUndoGlobal pushes the undo log into the object store next to
// the journal image. The write shares the journal pool, so the fault
// injector can tear it like any other global persist — recovery is
// indifferent, since rebuildSpeculative never reads it back.
func (c *Client) persistUndoGlobal(p runtime.Task, striper *rados.Striper) error {
	data, bytes, ok, err := c.exportUndo()
	if ok {
		if err = striper.WriteBilled(p, ClientJournalPool, c.name+UndoObjectSuffix, data, bytes); err != nil {
			err = fmt.Errorf("global persist undo: %w", err)
		}
	}
	return err
}

// ConvergeApply ships the journal through the MDS's strong-eventual CRDT
// resolver. Applied counts every event processed — absorbing a tie-break
// loser is a successful merge — so it equals the journal length on
// success. On success the journal is cleared.
func (c *Client) ConvergeApply(p runtime.Task) (int, error) {
	r := c.merge(p, mds.MergeConverge)
	return r.Applied, r.Err
}
