package cudele

import (
	"fmt"
	"testing"
)

// TestGrantNeverReissued is the Allocated Inodes contract (paper §III-C)
// across everything that makes a rank forget a subtree's owner: client a
// decouples /a and merges files drawn from its grant; then the owner
// registration leaves rank 0 — by recouple, by migrating /a away, by a
// rank crash until the restart hands it back — and client b decouples /b
// on the same rank. b must be
// granted a range a never held: a's inodes are in the namespace (or, in
// the crash case, about to merge into it), and a grant that reuses them
// makes b's merge fail with "inode ...: file exists".
func TestGrantNeverReissued(t *testing.T) {
	const pol = "consistency: weak\ndurability: none\nallocated_inodes: 100\n"
	for _, tc := range []struct {
		name   string
		forget func(t *testing.T, p Proc, cl *Cluster)
		// aMergesLate: a's journal is still client-held when b decouples,
		// and merges after the rank it registered on restarted.
		aMergesLate bool
	}{
		{name: "recouple", forget: func(t *testing.T, p Proc, cl *Cluster) {
			if err := cl.Recouple(p, "/a"); err != nil {
				t.Fatalf("recouple /a: %v", err)
			}
		}},
		{name: "export-commit", forget: func(t *testing.T, p Proc, cl *Cluster) {
			if err := cl.Migrate(p, "/a", 1); err != nil {
				t.Fatalf("migrate /a to rank 1: %v", err)
			}
		}},
		{name: "crash-restart", aMergesLate: true, forget: func(t *testing.T, p Proc, cl *Cluster) {
			cl.MDS().Crash(p)
			if err := cl.Monitor().Restart(p, 0); err != nil {
				t.Fatalf("mds restart: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := NewCluster(WithMDSRanks(2))
			a, b := cl.NewClient("a"), cl.NewClient("b")
			cl.Run(func(p Proc) {
				for _, dir := range []string{"/a", "/b"} {
					if _, err := a.MkdirAll(p, dir, 0755); err != nil {
						t.Fatalf("mkdir %s: %v", dir, err)
					}
				}
				if err := cl.MDS().SaveStore(p); err != nil {
					t.Fatalf("save store: %v", err)
				}
				create3 := func(c *Client, prefix string) {
					root, _ := c.DecoupledRoot()
					for i := 0; i < 3; i++ {
						if _, err := c.LocalCreate(p, root, fmt.Sprintf("%s%d", prefix, i), 0644); err != nil {
							t.Fatalf("%s local create: %v", c.Name(), err)
						}
					}
				}
				merge3 := func(c *Client) {
					if n, _, err := c.Merge(p); err != nil || n != 3 {
						t.Fatalf("%s merge applied %d, %v; want 3", c.Name(), n, err)
					}
				}

				ea, err := cl.Decouple(p, a, "/a", pol)
				if err != nil {
					t.Fatalf("decouple /a: %v", err)
				}
				ga := ea.Policy // a recouple clears the record, not a's grant
				create3(a, "x")
				if !tc.aMergesLate {
					merge3(a)
				}
				tc.forget(t, p, cl)

				eb, err := cl.Decouple(p, b, "/b", pol)
				if err != nil {
					t.Fatalf("decouple /b: %v", err)
				}
				gb := eb.Policy
				if gb.GrantLo < ga.GrantLo+ga.GrantN && ga.GrantLo < gb.GrantLo+gb.GrantN {
					t.Fatalf("b was granted [%d,+%d), overlapping a's [%d,+%d)",
						gb.GrantLo, gb.GrantN, ga.GrantLo, ga.GrantN)
				}
				create3(b, "y")
				merge3(b)
				if tc.aMergesLate {
					a.Unmount(p)
					a.Mount(p)
					merge3(a)
				}
			})
		})
	}
}
