package client

import (
	"cudele/internal/journal"
	"cudele/internal/mds"
	"cudele/internal/runtime"
)

// Namespace sync (paper §V-B3): a decoupled client periodically sends the
// updates it has accumulated back to the global namespace so end-users can
// check job progress with ls, while the job keeps its decoupled-namespace
// performance. The client pauses only to fork a background process — the
// pause is the address-space copy — and an idle core does the logging and
// network transfer.

type syncState struct {
	synced   int            // journal events already shipped
	inFlight runtime.Signal // disk+network drain of the most recent sync
	visible  runtime.Signal // MDS apply of the most recent sync
	pauses   int
	paused   runtime.Duration
}

// SyncNow forks a background drain of all journal events appended since
// the previous sync. It returns the pause inflicted on the client and the
// number of events shipped. The drain itself proceeds on an idle core and
// completes asynchronously; drains are serialized with each other.
func (c *Client) SyncNow(p runtime.Task) (pause runtime.Duration, synced int, err error) {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if c.dec == nil {
		return 0, 0, ErrNotDecoupled
	}
	events := c.dec.jrnl.Events()
	delta := events[c.sync.synced:]
	if len(delta) == 0 {
		return 0, 0, nil
	}
	bytes := int64(len(delta)) * int64(c.cfg.JournalEventBytes)

	// The fork pause: base cost plus copying the journal pages.
	pause = c.cfg.ForkBase + runtime.Duration(float64(bytes)/c.cfg.ForkCopyBandwidth*1e9)
	p.Sleep(pause)
	c.sync.synced = len(events)
	c.sync.pauses++
	c.sync.paused += pause

	prev := c.sync.inFlight
	prevVisible := c.sync.visible
	drained := c.eng.NewSignal()
	visible := c.eng.NewSignal()
	c.sync.inFlight = drained
	c.sync.visible = visible
	svc := c.svc
	route := c.dec.path
	c.dom.Spawn(c.name+".syncdrain", func(bp runtime.Task) {
		if prev != nil {
			prev.Wait(bp) // drains are ordered
		}
		// Log the updates and push them over disk+network from the
		// idle core. Once the bytes are at the metadata server the
		// drain is complete; the MDS applies them at its own pace.
		bp.Sleep(runtime.Duration(float64(bytes) / c.cfg.SyncDrainBandwidth * 1e9))
		drained.Fire(nil)
		if prevVisible != nil {
			prevVisible.Wait(bp) // applies are ordered too
		}
		// Partial updates become visible in the global namespace.
		// The transfer cost was charged above, so the apply ships
		// zero nominal bytes.
		r := svc.Post(bp, &mds.MergeMsg{Source: journal.CursorOver(delta), NominalBytes: 0, Route: route}).(*mds.MergeReply)
		visible.Fire(r.Err)
	})
	return pause, len(delta), nil
}

// WaitSyncDrain blocks until the most recent sync's bytes have finished
// their disk+network transfer to the metadata server. The final drain at
// job end is on the critical path, which is why very large sync intervals
// cost more than the optimum (paper Fig 6c).
func (c *Client) WaitSyncDrain(p runtime.Task) error { return c.waitSync(p, &c.sync.inFlight) }

// WaitSyncVisible blocks until the most recent sync's updates have been
// applied to the global namespace (end-users' ls sees them).
func (c *Client) WaitSyncVisible(p runtime.Task) error { return c.waitSync(p, &c.sync.visible) }

// waitSync waits, inside the client's domain, on the signal *stage holds
// by then (none before the first sync) and returns the error it fired
// with, if any.
func (c *Client) waitSync(p runtime.Task, stage *runtime.Signal) error {
	c.dom.Enter(p)
	defer c.dom.Leave(p)
	if *stage == nil {
		return nil
	}
	err, _ := (*stage).Wait(p).(error)
	return err
}

// SyncStats reports the number of sync pauses and the total time the
// client spent paused.
func (c *Client) SyncStats() (pauses int, paused runtime.Duration) {
	return c.sync.pauses, c.sync.paused
}
