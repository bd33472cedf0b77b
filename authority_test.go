package cudele

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"cudele/internal/namespace"
)

// TestPlacedSubtreeUpdateNotLost: c1 creates /a/b/f and /a/b is placed
// on rank 1. c2 resolves the file — which gives it no route hint — and
// sets its uid. The update must reach the owner, so that c1's Stat
// (routed to rank 1 by its create hint) reads uid 7, or fail. It must
// never be acknowledged by rank 0 from a copy nobody reads. On both
// backends.
func TestPlacedSubtreeUpdateNotLost(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendReal} {
		t.Run(fmt.Sprint(backend), func(t *testing.T) {
			cl := NewCluster(WithSeed(3), WithMDSRanks(2), WithBackend(backend))
			defer cl.Close()
			c1, c2 := cl.NewClient("c1"), cl.NewClient("c2")
			cl.Run(func(p Proc) {
				dir, err := c1.MkdirAll(p, "/a/b", 0755)
				var f Ino
				if err == nil {
					f, err = c1.Create(p, dir, "f", 0644)
				}
				if err == nil {
					err = cl.Monitor().Place(p, "/a/b", 1)
				}
				var g Ino
				if err == nil {
					g, err = c2.Resolve(p, "/a/b/f")
				}
				if err != nil || g != f {
					t.Fatalf("setup: resolved inode %d of %d: %v", g, f, err)
				}
				if err := c2.SetAttr(p, g, 0644, 7, 0, 0, 0); err != nil {
					return // refused: nothing was acknowledged
				}
				st, err := c1.Stat(p, f)
				if err != nil || st.UID != 7 {
					t.Errorf("an acknowledged setattr is not on the owner: stat = %+v, %v; want uid 7", st, err)
				}
			})
		})
	}
}

// TestRegistrationSweepLosesNoCreate: c1 creates /d/f while /d is placed
// on rank 1, the placement starting 0–4 ms after the create in 5 µs
// steps. In each of the 800 runs a create the cluster acknowledged must
// resolve on the rank that owns /d afterwards: a request the source was
// already serving when the subtree moved must not land in a copy the
// source no longer owns.
func TestRegistrationSweepLosesNoCreate(t *testing.T) {
	const steps, step = 800, 5 * time.Microsecond
	lost := 0
	for i := 0; i < steps; i++ {
		cl := NewCluster(WithSeed(1), WithMDSRanks(2))
		c1 := cl.NewClient("c1")
		var dir Ino
		cl.Run(func(p Proc) {
			var err error
			if dir, err = c1.MkdirAll(p, "/d", 0755); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
		})
		var createErr error
		cl.Go("create", func(p Proc) { _, createErr = c1.Create(p, dir, "f", 0644) })
		cl.Go("place", func(p Proc) {
			p.Sleep(time.Duration(i) * step)
			if err := cl.Monitor().Place(p, "/d", 1); err != nil {
				t.Errorf("start %v: place: %v", time.Duration(i)*step, err)
			}
		})
		cl.RunAll()
		if createErr != nil {
			continue // not acknowledged
		}
		meta := cl.Metadata()
		if _, err := meta.Rank(meta.Table().RankFor("/d")).Store().Resolve("/d/f"); err != nil {
			lost++
		}
	}
	if lost != 0 {
		t.Errorf("%d of %d acknowledged creates are missing from the owner of /d", lost, steps)
	}
}

// TestPlacedSubtreeStaysListed: once /a is placed on rank 1, its dentry
// still belongs to the root directory, which rank 0 keeps. A listing of
// / names a, a lookup of a finds the inode rank 1 serves, a create or
// mkdir of a in / is refused with EEXIST, so there is never a second a
// beside the placed one, and a rename of a, or of a file into a, is
// refused with EBUSY. A walk through a (MkdirAll) lands on rank 1. On
// both backends.
func TestPlacedSubtreeStaysListed(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendReal} {
		t.Run(fmt.Sprint(backend), func(t *testing.T) {
			cl := NewCluster(WithSeed(3), WithMDSRanks(2), WithBackend(backend))
			defer cl.Close()
			c := cl.NewClient("c1")
			cl.Run(func(p Proc) {
				a, err := c.MkdirAll(p, "/a/b", 0755)
				if err == nil {
					a, err = c.Resolve(p, "/a")
				}
				if err == nil {
					err = cl.Monitor().Place(p, "/a", 1)
				}
				if err != nil {
					t.Fatalf("setup: %v", err)
				}
				if names, err := c.ReadDir(p, RootIno); err != nil || !slices.Equal(names, []string{"a"}) {
					t.Errorf("ls / after the place = %v, %v; want [a]", names, err)
				}
				if got, err := c.Lookup(p, RootIno, "a"); err != nil || got != a {
					t.Errorf("lookup of a in / = %d, %v; want %d", got, err, a)
				}
				if _, err := c.Create(p, RootIno, "a", 0644); !errors.Is(err, namespace.ErrExist) {
					t.Errorf("create of a in / = %v, want EEXIST", err)
				}
				if _, err := c.Mkdir(p, RootIno, "a", 0755); !errors.Is(err, namespace.ErrExist) {
					t.Errorf("mkdir of a in / = %v, want EEXIST", err)
				}
				if err := c.Rename(p, RootIno, "a", RootIno, "z"); !errors.Is(err, namespace.ErrBusy) {
					t.Errorf("rename of a in / = %v, want EBUSY", err)
				}
				if _, err := c.Create(p, RootIno, "g", 0644); err != nil {
					t.Fatalf("create /g: %v", err)
				}
				if err := c.Rename(p, RootIno, "g", a, "g"); !errors.Is(err, namespace.ErrBusy) {
					t.Errorf("rename of /g into a = %v, want EBUSY", err)
				}
				x, err := c.MkdirAll(p, "/a/b/x", 0755)
				if err != nil {
					t.Fatalf("mkdir -p /a/b/x: %v", err)
				}
				meta := cl.Metadata()
				if in, err := meta.Rank(1).Store().Resolve("/a/b/x"); err != nil || in.Ino != x {
					t.Errorf("rank 1 resolves /a/b/x to %+v, %v; want inode %d", in, err, x)
				}
				if _, err := meta.Rank(0).Store().Resolve("/a/b"); err == nil {
					t.Error("rank 0 holds /a/b after the place")
				}
				if names, err := meta.Rank(0).Store().ReadDir(RootIno); err != nil || !slices.Equal(names, []string{"a", "g"}) {
					t.Errorf("rank 0 lists %v, %v in /; want [a g]", names, err)
				}
			})
		})
	}
}

// TestRenameOverPlacedSubtreeRefused: /a/b is placed on rank 1, so rank
// 0 holds b only as a bound under /a. Renaming /a would move the bound to
// /z/b while rank 1 and the table still serve /a/b: /z/b/x would not
// exist and /a/b/x, a path gone from the namespace, would still resolve.
// The rename is refused with EBUSY and everything stays where it was. On
// both backends.
func TestRenameOverPlacedSubtreeRefused(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendReal} {
		t.Run(fmt.Sprint(backend), func(t *testing.T) {
			cl := NewCluster(WithSeed(3), WithMDSRanks(2), WithBackend(backend))
			defer cl.Close()
			c := cl.NewClient("c1")
			cl.Run(func(p Proc) {
				_, err := c.MkdirAll(p, "/a/b", 0755)
				if err == nil {
					err = cl.Monitor().Place(p, "/a/b", 1)
				}
				var x Ino
				if err == nil {
					x, err = c.MkdirAll(p, "/a/b/x", 0755)
				}
				if err != nil {
					t.Fatalf("setup: %v", err)
				}
				if err := c.Rename(p, RootIno, "a", RootIno, "z"); !errors.Is(err, namespace.ErrBusy) {
					t.Errorf("rename of /a over the placed /a/b = %v, want EBUSY", err)
				}
				if got, err := c.Resolve(p, "/a/b/x"); err != nil || got != x {
					t.Errorf("resolve /a/b/x after the refused rename = %d, %v; want %d", got, err, x)
				}
				if _, err := c.Resolve(p, "/z"); !errors.Is(err, namespace.ErrNotExist) {
					t.Errorf("resolve /z after the refused rename = %v, want ENOENT", err)
				}
				if names, err := c.ReadDir(p, RootIno); err != nil || !slices.Equal(names, []string{"a"}) {
					t.Errorf("ls / = %v, %v; want [a]", names, err)
				}
				// A directory beside the placed subtree still renames.
				if _, err := c.MkdirAll(p, "/c/d", 0755); err != nil {
					t.Fatalf("mkdir -p /c/d: %v", err)
				}
				if err := c.Rename(p, RootIno, "c", RootIno, "e"); err != nil {
					t.Errorf("rename of /c = %v, want success", err)
				}
			})
		})
	}
}
