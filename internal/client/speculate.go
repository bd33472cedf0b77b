package client

import (
	"fmt"

	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/policy"
)

// The client halves of the two policy cells beyond the paper's Table I.
//
// ConsSpeculative: Local* ops apply optimistically against the client's
// predicted view, and beside each journaled op the client keeps its
// pre-image in memory; Merge ships the journal, the MDS validates every
// prediction against the live global namespace, and the client rolls
// back exactly the rejected ops. The pre-images are
// derivable from the journal, so recovery rebuilds them and nothing but
// the journal is ever persisted.
//
// ConsStrongEventual: Merge ships the journal through the MDS's CRDT
// resolver, so concurrent clients can merge in any order and the global
// namespace converges.

// FailRollbackAfter arms the mid-rollback crash hook: the next rollback
// errors out after n undos, leaving the journal and pre-images un-reset,
// exactly as a process death there would. One-shot: the hook disarms
// when it fires.
func (c *Client) FailRollbackAfter(n int) {
	c.failRollback = &n
}

// rollbackSpec undoes the ops at the given indices of the journal just
// shipped (ops events long) from the client-local image, newest first so
// a rejected mkdir's rejected children are gone before the directory
// itself is removed. A create or mkdir is undone by removing its dentry;
// an unlink by putting its pre-image back. The journal and pre-images are
// left intact on error (the mid-rollback crash shape); Merge resets them
// only after a complete rollback.
func (c *Client) rollbackSpec(ops int, conflicts []int) error {
	if len(conflicts) == 0 {
		return nil
	}
	events, pres := c.dec.jrnl.Events(), c.dec.undo
	budget := -1
	if c.failRollback != nil {
		budget = *c.failRollback
		c.failRollback = nil
	}
	done := 0
	for i := len(conflicts) - 1; i >= 0; i-- {
		idx := conflicts[i]
		if idx < 0 || idx >= ops || idx >= len(pres) {
			return fmt.Errorf("client: rollback index %d out of range (%d ops, %d pre-images)",
				idx, ops, len(pres))
		}
		if budget >= 0 && done >= budget {
			return fmt.Errorf("client: crashed mid-rollback after %d undos", done)
		}
		ev, pre := events[idx], pres[idx]
		parent := c.dec.localParent(namespace.Ino(ev.Parent))
		var err error
		switch {
		case ev.Type == journal.EvCreate:
			err = c.dec.store.Unlink(parent, ev.Name)
		case ev.Type == journal.EvMkdir:
			err = c.dec.store.Rmdir(parent, ev.Name)
		case ev.Type == journal.EvUnlink && pre != nil:
			// The unlinked inode comes back under its name, attributes and all.
			_, err = c.dec.store.Create(parent, ev.Name, namespace.CreateAttrs{
				Ino: pre.Ino, Mode: pre.Mode, UID: pre.UID, GID: pre.GID, Mtime: pre.Mtime,
			})
		default:
			err = fmt.Errorf("client: no pre-image to undo %v", ev.Type)
		}
		if err != nil {
			return fmt.Errorf("client: rollback op %d: %w", idx, err)
		}
		done++
	}
	return nil
}

// rebuildSpeculative reconstructs the local image and the pre-images
// from d's journal, recovered after a crash. The rebuilt state re-enters
// the ordinary merge/validate/rollback cycle, so ops the MDS rejects are
// rolled back again rather than resurrected.
func (d *decoupled) rebuildSpeculative() error {
	d.store, d.undo = namespace.NewStore(), nil
	for idx, ev := range d.jrnl.Events() {
		pre, err := d.applyLocal(ev)
		if err != nil {
			return fmt.Errorf("client: rebuild op %d: %w", idx, err)
		}
		d.undo = append(d.undo, pre)
	}
	return nil
}

// applyLocal applies one journaled op — a create, mkdir or unlink — to
// the client-local image, the one path for a Local* operation and for a
// rebuild from a recovered journal, and returns the op's pre-image: in
// the speculative cell, a copy of the inode an unlink removed; nil for a
// create or mkdir, and in every other cell, which rolls nothing back.
func (d *decoupled) applyLocal(ev *journal.Event) (pre *namespace.Inode, err error) {
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
		var in *namespace.Inode
		if in, err = d.store.Lookup(parent, ev.Name); err == nil {
			pre = d.preImage(in)
			err = d.store.Unlink(parent, ev.Name)
		}
	default:
		err = fmt.Errorf("unexpected %v in a decoupled journal", ev.Type)
	}
	return pre, err
}

// preImage copies in for rollback in the speculative cell; every other
// cell gets nil and allocates nothing.
func (d *decoupled) preImage(in *namespace.Inode) *namespace.Inode {
	if d.reg.Consistency != policy.ConsSpeculative {
		return nil
	}
	v := *in
	return &v
}
