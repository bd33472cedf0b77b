package rados

import (
	"testing"

	"cudele/internal/model"
	"cudele/internal/runtime"
	"cudele/internal/sim"
)

func TestAccessors(t *testing.T) {
	e, c := newTestCluster(t)
	_ = e
	if len(c.OSDs()) != model.Default().NumOSDs {
		t.Fatalf("osds = %d", len(c.OSDs()))
	}
	if c.Net() == nil {
		t.Fatal("no fabric pipe")
	}
	if s := NewStriper(c); s.unit != model.Default().StripeUnit {
		t.Fatalf("unit = %d", s.unit)
	}
}

func TestReplicasClampedToOSDCount(t *testing.T) {
	cfg := model.Default()
	cfg.Replicas = 10 // more than NumOSDs
	e := sim.NewEngine(1)
	c := New(e, cfg)
	oid := ObjectID{Pool: "p", Name: "o"}
	if got := len(c.replicas(oid)); got != cfg.NumOSDs {
		t.Fatalf("replicas = %d, want clamped to %d", got, cfg.NumOSDs)
	}
	// Replicas are distinct OSDs, primary first.
	seen := map[int]bool{}
	for _, osd := range c.replicas(oid) {
		if seen[osd.ID] {
			t.Fatalf("duplicate replica OSD %d", osd.ID)
		}
		seen[osd.ID] = true
	}
}

func TestWriteBilledChargesNominal(t *testing.T) {
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "j", Name: "seg"}
	var took runtime.Time
	run(t, e, func(p runtime.Task) {
		start := p.Now()
		c.WriteBilled(p, oid, []byte("tiny"), 8<<20) // bill 8 MB
		took = p.Now() - start
		got, err := c.Read(p, oid)
		if err != nil || string(got) != "tiny" {
			t.Errorf("read back = %q, %v", got, err)
		}
	})
	// 8 MB x 3 replicas at 80 MB/s is at least 0.3 s.
	if took.Seconds() < 0.2 {
		t.Fatalf("billed write took %.3fs, want >= 0.2s", took.Seconds())
	}
	if c.Stats().BytesWritten < 8<<20 {
		t.Fatalf("billed bytes = %d", c.Stats().BytesWritten)
	}
}

func TestWriteBilledFloorsAtActualSize(t *testing.T) {
	e, c := newTestCluster(t)
	oid := ObjectID{Pool: "j", Name: "seg"}
	run(t, e, func(p runtime.Task) {
		c.WriteBilled(p, oid, make([]byte, 1000), 1) // billed < len(data)
	})
	if c.Stats().BytesWritten != 1000 {
		t.Fatalf("billed bytes = %d, want 1000", c.Stats().BytesWritten)
	}
}

func TestStriperWriteBilledRoundTrip(t *testing.T) {
	e, c := newTestCluster(t)
	s := NewStriper(c)
	payload := []byte("real journal bytes")
	run(t, e, func(p runtime.Task) {
		s.WriteBilled(p, "j", "client0", payload, 10<<20) // 3 stripes of cost
		got, err := s.Read(p, "j", "client0")
		if err != nil || string(got) != string(payload) {
			t.Errorf("read back = %q, %v", got, err)
		}
	})
	// 10 MB at 4 MB stripes = 3 stripe objects.
	if n := c.Stats().Objects; n != 3 {
		t.Fatalf("stripe objects = %d, want 3", n)
	}
}

func TestStriperWriteBilledZero(t *testing.T) {
	e, c := newTestCluster(t)
	s := NewStriper(c)
	run(t, e, func(p runtime.Task) {
		s.WriteBilled(p, "j", "empty", nil, 0)
		got, err := s.Read(p, "j", "empty")
		if err != nil || len(got) != 0 {
			t.Errorf("empty billed round trip = %v, %v", got, err)
		}
	})
}
