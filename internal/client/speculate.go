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

// recordUndo appends one undo entry mirroring the journal op just
// appended: Mode carries the undone op's type, Size its journal index,
// and for an unlink the victim's attributes ride along so rollback can
// re-create it. Undo appends are client-memory bookkeeping and charge no
// simulated time beyond the op's own append. No-op outside speculative
// mode, so every other cell's costs and bytes are untouched.
func (c *Client) recordUndo(op journal.EventType, ino, parent uint64, name string, victim *namespace.Inode) error {
	if c.dec.mode != policy.ConsSpeculative || c.dec.undo == nil {
		return nil
	}
	ev := &journal.Event{
		Type: journal.EvUndo, Client: c.name,
		Ino: ino, Parent: parent, Name: name,
		Mode: uint32(op), Size: uint64(c.dec.jrnl.Len() - 1),
	}
	if victim != nil {
		ev.UID, ev.GID, ev.Mtime = victim.UID, victim.GID, victim.Mtime
		ev.NewParent = uint64(victim.Mode)
	}
	_, err := c.dec.undo.Append(ev)
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
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return 0, nil, ErrNotDecoupled
	}
	if c.dec.mode != policy.ConsSpeculative {
		return 0, nil, fmt.Errorf("client: speculative apply in %v mode", c.dec.mode)
	}
	ops := c.dec.jrnl.Len()
	r := c.shipJournal(p, mds.MergeSpeculative)
	if r.Err != nil {
		return r.Applied, r.Conflicts, r.Err
	}
	if err := c.rollbackSpec(ops, r.Conflicts); err != nil {
		return r.Applied, r.Conflicts, err
	}
	c.dec.jrnl.Reset()
	c.dec.undo.Reset()
	return r.Applied, r.Conflicts, nil
}

// rollbackSpec undoes the ops at the given indices of the journal just
// shipped (ops events long) from the client-local image, newest first so
// a rejected mkdir's rejected children are gone before the directory
// itself is removed. The journal and undo log are left intact on error
// (the mid-rollback crash shape); SpeculativeApply resets them only after
// a complete rollback.
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
		parent := c.dec.localParent(namespace.Ino(ev.Parent))
		undo := &journal.Event{
			Type: journal.EvUndo, Client: c.name,
			Ino: ev.Ino, Parent: ev.Parent, Name: ev.Name,
			Mode: uint32(ev.Type), Size: uint64(idx),
		}
		switch ev.Type {
		case journal.EvCreate:
			if _, err := c.dec.store.Create(parent, ev.Name, namespace.CreateAttrs{
				Ino: namespace.Ino(ev.Ino), Mode: ev.Mode, UID: ev.UID, GID: ev.GID, Mtime: ev.Mtime,
			}); err != nil {
				return fmt.Errorf("client: rebuild op %d: %w", idx, err)
			}
		case journal.EvMkdir:
			if _, err := c.dec.store.Mkdir(parent, ev.Name, namespace.CreateAttrs{
				Ino: namespace.Ino(ev.Ino), Mode: ev.Mode, UID: ev.UID, GID: ev.GID, Mtime: ev.Mtime,
			}); err != nil {
				return fmt.Errorf("client: rebuild op %d: %w", idx, err)
			}
		case journal.EvUnlink:
			victim, err := c.dec.store.Lookup(parent, ev.Name)
			if err != nil {
				return fmt.Errorf("client: rebuild op %d: %w", idx, err)
			}
			undo.Ino = uint64(victim.Ino)
			undo.UID, undo.GID, undo.Mtime = victim.UID, victim.GID, victim.Mtime
			undo.NewParent = uint64(victim.Mode)
			if err := c.dec.store.Unlink(parent, ev.Name); err != nil {
				return fmt.Errorf("client: rebuild op %d: %w", idx, err)
			}
		default:
			return fmt.Errorf("client: rebuild: unexpected %v in speculative journal", ev.Type)
		}
		if _, err := c.dec.undo.Append(undo); err != nil {
			return err
		}
	}
	return nil
}

// persistUndoLocal writes the undo log beside the locally persisted
// journal. No-op outside speculative mode, keeping every other cell's
// persisted bytes and disk time identical.
func (c *Client) persistUndoLocal(p runtime.Task) error {
	if c.dec.mode != policy.ConsSpeculative || c.dec.undo == nil {
		return nil
	}
	data, err := c.dec.undo.Export()
	if err != nil {
		return err
	}
	bytes := int64(c.dec.undo.Len()) * int64(c.cfg.JournalEventBytes)
	c.noteTransfer(bytes)
	c.chargeLocalDisk(p, bytes)
	c.localFiles["undo"] = data
	return nil
}

// persistUndoGlobal pushes the undo log into the object store next to
// the journal image. The write shares the journal pool, so the fault
// injector can tear it like any other global persist — recovery is
// indifferent, since rebuildSpeculative never reads it back.
func (c *Client) persistUndoGlobal(p runtime.Task, striper *rados.Striper) error {
	if c.dec.mode != policy.ConsSpeculative || c.dec.undo == nil {
		return nil
	}
	data, err := c.dec.undo.Export()
	if err != nil {
		return err
	}
	bytes := int64(c.dec.undo.Len()) * int64(c.cfg.JournalEventBytes)
	c.noteTransfer(bytes)
	if err := striper.WriteBilled(p, ClientJournalPool, c.name+UndoObjectSuffix, data, bytes); err != nil {
		return fmt.Errorf("global persist undo: %w", err)
	}
	return nil
}

// ConvergeApply ships the journal through the MDS's strong-eventual CRDT
// resolver. Applied counts every event processed — absorbing a tie-break
// loser is a successful merge — so it equals the journal length on
// success. On success the journal is cleared.
func (c *Client) ConvergeApply(p runtime.Task) (int, error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return 0, ErrNotDecoupled
	}
	r := c.shipJournal(p, mds.MergeConverge)
	if r.Err != nil {
		return r.Applied, r.Err
	}
	c.dec.jrnl.Reset()
	return r.Applied, nil
}
