package sim

import (
	"testing"
	"time"
)

// TestSnapshotFinalizesBusyArea pins the satellite fix: the busy-time
// integral used to be updated only on state changes, so a resource held
// (or idle) across the end of a run undercounted its final interval when
// the raw accounting was read. Snapshot must include time up to "now"
// even with no state change since the last acquire/release.
func TestSnapshotFinalizesBusyArea(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		// Hold the unit forever past the last event: the engine clock
		// advances via an unrelated timer event.
	})
	e.Schedule(2*time.Second, func() {})
	e.RunAll()

	snap := r.Snapshot()
	if snap.At != Time(2*time.Second) {
		t.Fatalf("snapshot at %v, want 2s", snap.At)
	}
	// Held from t=0 to t=2s with capacity 1: busyArea = 2 unit·s.
	if snap.BusyArea < 1.999 || snap.BusyArea > 2.001 {
		t.Fatalf("busyArea = %v, want ~2 (final interval not finalized)", snap.BusyArea)
	}
	if snap.Utilization < 0.999 || snap.Utilization > 1.001 {
		t.Fatalf("utilization = %v, want ~1", snap.Utilization)
	}
	if snap.InUse != 1 || snap.Capacity != 1 || snap.Name != "cpu" {
		t.Fatalf("snapshot identity fields wrong: %+v", snap)
	}
	e.Shutdown()
}

// TestRunFinalizesAccounting checks the engine itself finalizes the
// integral when the event loop stops, so even raw field readers (not
// going through Snapshot) see a complete integral at end-of-run.
func TestRunFinalizesAccounting(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 2)
	e.Go("u", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Second)
		// Keep holding; never release.
	})
	e.Schedule(4*time.Second, func() {})
	e.RunAll()

	// The engine's end-of-run finalization integrated through t=4s (the
	// Snapshot adds nothing at the same instant). 1 unit x 4s / (2 cap x
	// 4s) = 0.5.
	if got := r.Snapshot().BusyArea; got < 3.999 || got > 4.001 {
		t.Fatalf("busyArea = %v, want ~4 after Run finalization", got)
	}
	if u := r.Utilization(); u < 0.499 || u > 0.501 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	e.Shutdown()
}

// TestSnapshotQueueAndWaits checks queue depth and wait accounting
// surface through the snapshot.
func TestSnapshotQueueAndWaits(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			r.Use(p, time.Second)
		})
	}
	e.RunAll()
	snap := r.Snapshot()
	if snap.Acquires != 3 {
		t.Fatalf("acquires = %d, want 3", snap.Acquires)
	}
	// Second waiter waits 1s, third waits 2s.
	if snap.WaitTotal != 3*time.Second {
		t.Fatalf("waitTotal = %v, want 3s", snap.WaitTotal)
	}
	if snap.QueueLen != 0 || snap.InUse != 0 {
		t.Fatalf("drained resource snapshot: %+v", snap)
	}
	if snap.BusyArea < 2.999 || snap.BusyArea > 3.001 {
		t.Fatalf("busyArea = %v, want ~3", snap.BusyArea)
	}
	e.Shutdown()
}

// TestPipeSnapshot checks pipes re-export their inner resource snapshot.
func TestPipeSnapshot(t *testing.T) {
	e := NewEngine(1)
	pp := NewPipe(e, "net", 1e6) // 1 MB/s
	e.Go("xfer", func(p *Proc) {
		pp.Transfer(p, 500_000) // 0.5 s of service
	})
	e.Schedule(time.Second, func() {})
	e.RunAll()
	snap := pp.Snapshot()
	if snap.Name != "net" {
		t.Fatalf("name = %q", snap.Name)
	}
	if snap.Utilization < 0.499 || snap.Utilization > 0.501 {
		t.Fatalf("pipe utilization = %v, want 0.5", snap.Utilization)
	}
	e.Shutdown()
}
