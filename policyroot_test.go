package cudele

import (
	"errors"
	"testing"

	"cudele/internal/namespace"
	"cudele/internal/policy"
)

// TestCompositionConsistencyPicksItsCell: a policies file may spell its
// consistency as a mechanism composition instead of a level name. The
// registration must then carry the cell that composition implements — the
// cell the client adopts and merges in (a speculative composition
// validates, it does not merge blind in the default strong cell) — and
// the composition must run in it.
func TestCompositionConsistencyPicksItsCell(t *testing.T) {
	for _, tc := range []struct {
		cons string
		want policy.Consistency
	}{
		{"append_client_journal+speculative_apply", ConsSpeculative},
		{"append_client_journal+converge_apply", ConsStrongEventual},
		{"append_client_journal+volatile_apply", ConsWeak},
		{"append_client_journal", ConsInvisible},
	} {
		cl := NewCluster()
		c := cl.NewClient("c0")
		cl.Run(func(p Proc) {
			if _, err := c.MkdirAll(p, "/job", 0755); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			e, err := cl.Decouple(p, c, "/job", "consistency: "+tc.cons+"\ndurability: none\n")
			if err != nil {
				t.Fatalf("%s: decouple: %v", tc.cons, err)
			}
			if got := e.Policy.Consistency; got != tc.want {
				t.Errorf("%s: registered in the %v cell, want %v", tc.cons, got, tc.want)
			}
			root, _ := c.DecoupledRoot()
			if _, err := c.LocalCreate(p, root, "f", 0644); err != nil {
				t.Fatalf("%s: local create: %v", tc.cons, err)
			}
			comp, _ := e.Policy.Composition()
			if err := c.RunComposition(p, comp); err != nil {
				t.Errorf("%s: run composition: %v", tc.cons, err)
			}
		})
	}
}

// TestNestedRegistrationsNearestRootGoverns: a subtree registered inside
// another registered subtree is governed by its own policy alone. c1
// blocks /a; c2 registers /a/b with interfere allow and no inode grant.
// A third client may create in /a/b but not in /a, and /a/b's grant is
// the cluster's default, not /a's.
func TestNestedRegistrationsNearestRootGoverns(t *testing.T) {
	cl := NewCluster()
	c1, c2, c3 := cl.NewClient("c1"), cl.NewClient("c2"), cl.NewClient("c3")
	cl.Run(func(p Proc) {
		b, err := c3.MkdirAll(p, "/a/b", 0755)
		if err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		a, err := c3.Resolve(p, "/a")
		if err != nil {
			t.Fatalf("resolve /a: %v", err)
		}
		if _, err := cl.DecouplePolicy(p, c1, "/a", &Policy{Consistency: ConsWeak, Durability: DurNone,
			AllocatedInodes: 777, Interfere: InterfereBlock}); err != nil {
			t.Fatalf("register /a: %v", err)
		}
		eb, err := cl.DecouplePolicy(p, c2, "/a/b", &Policy{Consistency: ConsWeak, Durability: DurNone,
			Interfere: InterfereAllow})
		if err != nil {
			t.Fatalf("register /a/b: %v", err)
		}
		if want := uint64(DefaultConfig().AllocatedInodesDefault); eb.Policy.GrantN != want {
			t.Errorf("/a/b grant = %d inodes, want the cluster default %d", eb.Policy.GrantN, want)
		}
		if _, err := c3.Create(p, b, "x", 0644); err != nil {
			t.Errorf("create in /a/b (interfere allow): %v", err)
		}
		if _, err := c3.Create(p, a, "y", 0644); !errors.Is(err, namespace.ErrBusy) {
			t.Errorf("create in /a (interfere block) err = %v, want EBUSY", err)
		}
	})
}
