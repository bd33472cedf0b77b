package namespace

import (
	"errors"
	"maps"
	"path"
	"slices"
	"testing"

	"cudele/internal/policy"
)

func TestSetPolicyAndEffective(t *testing.T) {
	s := NewStore()
	s.MkdirAll("/home/alice/job", CreateAttrs{Mode: 0755})
	batchfs := &policy.Policy{
		Consistency:     policy.ConsWeak,
		Durability:      policy.DurLocal,
		AllocatedInodes: 1000,
	}
	if err := s.SetPolicyPath("/home/alice", batchfs); err != nil {
		t.Fatalf("set policy: %v", err)
	}

	// The subtree root and everything under it resolve to the policy.
	for _, p := range []string{"/home/alice", "/home/alice/job"} {
		in, _ := s.Resolve(p)
		eff, err := s.EffectivePolicy(in.Ino)
		if err != nil {
			t.Fatalf("effective(%s): %v", p, err)
		}
		if eff.Consistency != policy.ConsWeak || eff.Durability != policy.DurLocal {
			t.Fatalf("effective(%s) = %v/%v", p, eff.Consistency, eff.Durability)
		}
	}
	// Outside the subtree, the default applies.
	home, _ := s.Resolve("/home")
	eff, _ := s.EffectivePolicy(home.Ino)
	if eff.Consistency != policy.ConsStrong || eff.Durability != policy.DurGlobal {
		t.Fatalf("outside policy = %v/%v", eff.Consistency, eff.Durability)
	}
}

func TestPolicyRoot(t *testing.T) {
	s := NewStore()
	s.MkdirAll("/a/b/c", CreateAttrs{})
	b, _ := s.Resolve("/a/b")
	c, _ := s.Resolve("/a/b/c")
	s.SetPolicy(b.Ino, &policy.Policy{Consistency: policy.ConsInvisible, AllocatedInodes: 10})

	root, err := s.PolicyRoot(c.Ino)
	if err != nil || root != b.Ino {
		t.Fatalf("policy root = %d, %v; want %d", root, err, b.Ino)
	}
	a, _ := s.Resolve("/a")
	root, _ = s.PolicyRoot(a.Ino)
	if root != RootIno {
		t.Fatalf("policy root outside subtree = %d", root)
	}
}

func TestNestedPoliciesInherit(t *testing.T) {
	// Embeddable-policies extension: a child subtree overrides only what
	// it sets; the inode grant is inherited when unset.
	s := NewStore()
	s.MkdirAll("/posix/ramdisk", CreateAttrs{})
	s.SetPolicyPath("/posix", &policy.Policy{
		Consistency: policy.ConsStrong, Durability: policy.DurGlobal,
		AllocatedInodes: 777,
	})
	s.SetPolicyPath("/posix/ramdisk", &policy.Policy{
		Consistency: policy.ConsStrong, Durability: policy.DurNone,
	})
	in, _ := s.Resolve("/posix/ramdisk")
	eff, err := s.EffectivePolicy(in.Ino)
	if err != nil {
		t.Fatalf("effective: %v", err)
	}
	if eff.Durability != policy.DurNone {
		t.Fatalf("child durability = %v, want none", eff.Durability)
	}
	if eff.AllocatedInodes != 777 {
		t.Fatalf("child inode grant = %d, want inherited 777", eff.AllocatedInodes)
	}
}

func TestSetPolicyErrors(t *testing.T) {
	s := NewStore()
	f, _ := s.Create(RootIno, "f", CreateAttrs{})
	if err := s.SetPolicy(f.Ino, policy.Default()); !errors.Is(err, ErrNotDir) {
		t.Fatalf("set policy on file err = %v", err)
	}
	if err := s.SetPolicy(9999, policy.Default()); !errors.Is(err, ErrNotExist) {
		t.Fatalf("set policy on missing err = %v", err)
	}
	bad := &policy.Policy{AllocatedInodes: -1}
	if err := s.SetPolicy(RootIno, bad); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if err := s.SetPolicyPath("/nowhere", policy.Default()); !errors.Is(err, ErrNotExist) {
		t.Fatalf("set policy on missing path err = %v", err)
	}
}

func TestClearPolicy(t *testing.T) {
	s := NewStore()
	d, _ := s.Mkdir(RootIno, "d", CreateAttrs{})
	s.SetPolicy(d.Ino, &policy.Policy{Consistency: policy.ConsInvisible, AllocatedInodes: 5})
	if err := s.SetPolicy(d.Ino, nil); err != nil {
		t.Fatalf("clear: %v", err)
	}
	eff, _ := s.EffectivePolicy(d.Ino)
	if eff.Consistency != policy.ConsStrong {
		t.Fatalf("after clear = %v", eff.Consistency)
	}
}

func TestPolicySubtrees(t *testing.T) {
	s := NewStore()
	s.MkdirAll("/x/y", CreateAttrs{})
	s.MkdirAll("/z", CreateAttrs{})
	s.SetPolicyPath("/x/y", &policy.Policy{Consistency: policy.ConsWeak, AllocatedInodes: 5})
	s.SetPolicyPath("/z", &policy.Policy{Consistency: policy.ConsInvisible, AllocatedInodes: 5})
	got, err := s.PolicySubtrees()
	if err != nil || len(got) != 2 || got[0] != "/x/y" || got[1] != "/z" {
		t.Fatalf("subtrees = %v, %v", got, err)
	}
}

// TestSubtreeDirsOrder: SubtreeDirs is the one order directory objects
// carry a subtree to another store in — the ancestor chain root-first,
// then the subtree's directories depth-first in sorted order — and
// installing exactly those objects, in that order, into an empty store
// reproduces the subtree and nothing beside it.
func TestSubtreeDirsOrder(t *testing.T) {
	src := NewStore()
	for _, dir := range []string{
		"/top/job/b/deep", "/top/job/a/x", "/top/job/a/y", "/top/job/c",
		"/top/sibling/s", "/other",
	} {
		if _, err := src.MkdirAll(dir, CreateAttrs{Mode: 0755}); err != nil {
			t.Fatal(err)
		}
	}
	for _, file := range []string{"/top/job/f", "/top/job/a/x/g", "/top/job/b/deep/h", "/top/sibling/s/no"} {
		dir, _ := src.Resolve(path.Dir(file))
		if _, err := src.Create(dir.Ino, path.Base(file), CreateAttrs{Mode: 0644}); err != nil {
			t.Fatal(err)
		}
	}

	dirs, err := src.SubtreeDirs("/top/job")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ino := range dirs {
		p, _ := src.PathOf(ino)
		got = append(got, p)
	}
	want := []string{"/", "/top", // ancestors, root first
		"/top/job", "/top/job/a", "/top/job/a/x", "/top/job/a/y", "/top/job/b", "/top/job/b/deep", "/top/job/c"}
	if !slices.Equal(got, want) {
		t.Fatalf("SubtreeDirs(/top/job) =\n %v\nwant\n %v", got, want)
	}

	dst := NewStore()
	for _, ino := range dirs {
		data, err := src.EncodeDir(ino)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := DecodeDir(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.InstallDir(obj); err != nil {
			t.Fatalf("install %s: %v", DirObjectName(ino), err)
		}
	}
	// The ancestors' objects name their other children too: those arrive
	// as empty dentries, which is what a stale, unreachable copy is. Under
	// the subtree root the two stores must agree inode for inode.
	inos, err := src.SubtreeInos("/top/job")
	if err != nil {
		t.Fatal(err)
	}
	moved, err := dst.SubtreeInos("/top/job")
	if err != nil || !maps.Equal(inos, moved) {
		t.Fatalf("installed subtree holds inodes %v (%v), source %v", moved, err, inos)
	}
	if _, err := src.PruneSubtree("/top/sibling"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.PruneSubtree("/other"); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{"/top/sibling", "/other"} {
		if _, err := dst.PruneSubtree(stale); err != nil {
			t.Fatal(err)
		}
	}
	if !Equal(src, dst) {
		t.Error("the store filled from SubtreeDirs' objects differs from the source subtree")
	}

	if dirs, err := src.SubtreeDirs("/"); err != nil || len(dirs) != len(src.Dirs()) || dirs[0] != RootIno {
		t.Errorf("SubtreeDirs(/) = %v, %v; want every directory, root first", dirs, err)
	}
	if _, err := src.SubtreeDirs("/top/job/f"); !errors.Is(err, ErrNotDir) {
		t.Errorf("SubtreeDirs of a file = %v, want ErrNotDir", err)
	}
	if _, err := src.SubtreeDirs("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("SubtreeDirs of a missing path = %v, want ErrNotExist", err)
	}
}
