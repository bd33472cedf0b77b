package namespace

import (
	"errors"
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
	alice, _ := s.Resolve("/home/alice")
	if err := s.SetPolicy(alice.Ino, batchfs); err != nil {
		t.Fatalf("set policy: %v", err)
	}

	// The subtree root and everything under it resolve to the policy.
	for _, p := range []string{"/home/alice", "/home/alice/job"} {
		in, _ := s.Resolve(p)
		root, err := s.PolicyRoot(in.Ino)
		if err != nil {
			t.Fatalf("policy root(%s): %v", p, err)
		}
		if root.Policy != batchfs {
			t.Fatalf("policy root(%s) = %d with %v, want /home/alice's", p, root.Ino, root.Policy)
		}
	}
	// Outside the subtree no policy governs: the global namespace's
	// semantics apply.
	home, _ := s.Resolve("/home")
	if root, _ := s.PolicyRoot(home.Ino); root.Ino != RootIno || root.Policy != nil {
		t.Fatalf("outside policy root = %d with %v", root.Ino, root.Policy)
	}
}

func TestPolicyRoot(t *testing.T) {
	s := NewStore()
	s.MkdirAll("/a/b/c", CreateAttrs{})
	b, _ := s.Resolve("/a/b")
	c, _ := s.Resolve("/a/b/c")
	s.SetPolicy(b.Ino, &policy.Policy{Consistency: policy.ConsInvisible, AllocatedInodes: 10})

	root, err := s.PolicyRoot(c.Ino)
	if err != nil || root.Ino != b.Ino {
		t.Fatalf("policy root = %v, %v; want %d", root, err, b.Ino)
	}
	a, _ := s.Resolve("/a")
	root, _ = s.PolicyRoot(a.Ino)
	if root.Ino != RootIno {
		t.Fatalf("policy root outside subtree = %d", root.Ino)
	}

	// Nested policies do not merge: the nearest root governs whole, and
	// an outer root's fields never fill an inner one's unset ones.
	s.SetPolicy(a.Ino, &policy.Policy{Consistency: policy.ConsWeak, AllocatedInodes: 777, Interfere: policy.InterfereBlock})
	if root, _ = s.PolicyRoot(c.Ino); root.Ino != b.Ino || root.Policy.AllocatedInodes != 10 || root.Policy.Interfere != policy.InterfereAllow {
		t.Fatalf("nested policy root = %d with %+v, want /a/b's own", root.Ino, root.Policy)
	}
	if _, err := s.PolicyRoot(9999); !errors.Is(err, ErrNotExist) {
		t.Fatalf("policy root of a missing inode err = %v", err)
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
}

func TestClearPolicy(t *testing.T) {
	s := NewStore()
	d, _ := s.Mkdir(RootIno, "d", CreateAttrs{})
	s.SetPolicy(d.Ino, &policy.Policy{Consistency: policy.ConsInvisible, AllocatedInodes: 5})
	if err := s.SetPolicy(d.Ino, nil); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if root, _ := s.PolicyRoot(d.Ino); root.Ino != RootIno || root.Policy != nil {
		t.Fatalf("after clear the policy root = %d with %v", root.Ino, root.Policy)
	}
}

// TestSubtree: Subtree's dirs are the one order directory objects carry
// a subtree to another store in — the ancestor chain root-first, then
// the subtree's directories depth-first in sorted order — and installing
// exactly those objects, in that order, into an empty store reproduces
// the subtree and nothing beside it. Its inos are the inodes a Walk of
// the subtree visits.
func TestSubtree(t *testing.T) {
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
	walked := func(s *Store, p string, dirsOnly bool) []Ino {
		t.Helper()
		root, err := s.Resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		var out []Ino
		if err := s.Walk(root.Ino, func(_ string, in *Inode) error {
			if !dirsOnly || in.IsDir() {
				out = append(out, in.Ino)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	dirs, inos, err := src.Subtree("/top/job")
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
		t.Fatalf("Subtree(/top/job) dirs =\n %v\nwant\n %v", got, want)
	}
	if w := walked(src, "/top/job", false); !slices.Equal(inos, w) {
		t.Fatalf("Subtree(/top/job) inos = %v, a Walk visits %v", inos, w)
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
	if _, moved, err := dst.Subtree("/top/job"); err != nil || !slices.Equal(inos, moved) {
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
		t.Error("the store filled from Subtree's objects differs from the source subtree")
	}

	if dirs, inos, err := src.Subtree("/"); err != nil || !slices.Equal(dirs, walked(src, "/", true)) ||
		!slices.Equal(inos, walked(src, "/", false)) || dirs[0] != RootIno {
		t.Errorf("Subtree(/) = %v, %v, %v; want every directory and inode in Walk order, root first", dirs, inos, err)
	}
	if _, _, err := src.Subtree("/top/job/f"); !errors.Is(err, ErrNotDir) {
		t.Errorf("Subtree of a file = %v, want ErrNotDir", err)
	}
	if _, _, err := src.Subtree("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Subtree of a missing path = %v, want ErrNotExist", err)
	}
	if _, err := src.PruneSubtree("/"); !errors.Is(err, ErrInval) {
		t.Errorf("PruneSubtree(/) = %v, want ErrInval", err)
	}
}

// TestPruneExport: the exporter's prune removes everything under the
// subtree root, returning those inodes with their parents and names in
// ascending inode order, and keeps the
// root itself, empty and with no policy, so
// its parent still lists it, a create of its name is refused, and the
// store checks clean. The root of the namespace and a file are refused.
func TestPruneExport(t *testing.T) {
	s := NewStore()
	for _, dir := range []string{"/top/job/a/x", "/top/job/b", "/top/sibling"} {
		if _, err := s.MkdirAll(dir, CreateAttrs{Mode: 0755}); err != nil {
			t.Fatal(err)
		}
	}
	job, _ := s.Resolve("/top/job")
	if _, err := s.Create(job.Ino, "f", CreateAttrs{Mode: 0644}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPolicy(job.Ino, &policy.Policy{}); err != nil {
		t.Fatal(err)
	}
	before := s.Len()

	var want []Pruned
	for _, path := range []string{"/top/job/a", "/top/job/a/x", "/top/job/b", "/top/job/f"} {
		in, _ := s.Resolve(path)
		want = append(want, Pruned{Ino: in.Ino, Parent: in.Parent, Name: in.Name})
	}
	slices.SortFunc(want, func(a, b Pruned) int { return int(a.Ino) - int(b.Ino) })
	pruned, err := s.PruneExport("/top/job")
	if err != nil || !slices.Equal(pruned, want) || s.Len() != before-4 {
		t.Fatalf("PruneExport = %v, %v; store %d -> %d inodes, want %v removed, in order", pruned, err, before, s.Len(), want)
	}
	in, err := s.Resolve("/top/job")
	if err != nil || in.Ino != job.Ino || !in.IsDir() || in.NumChildren() != 0 || in.Policy != nil {
		t.Fatalf("pruned root = %+v, %v; want the same empty directory with no policy", in, err)
	}
	top, _ := s.Resolve("/top")
	if names, _ := s.ReadDir(top.Ino); !slices.Equal(names, []string{"job", "sibling"}) {
		t.Errorf("parent lists %v after the prune, want [job sibling]", names)
	}
	if _, err := s.Mkdir(top.Ino, "job", CreateAttrs{}); !errors.Is(err, ErrExist) {
		t.Errorf("mkdir of the pruned root's name = %v, want ErrExist", err)
	}
	if probs := s.Check(); len(probs) != 0 {
		t.Errorf("store after the prune: %v", probs)
	}
	if _, err := s.PruneExport("/"); !errors.Is(err, ErrInval) {
		t.Errorf("PruneExport(/) = %v, want ErrInval", err)
	}
	if _, err := s.Create(top.Ino, "file", CreateAttrs{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PruneExport("/top/file"); !errors.Is(err, ErrNotDir) {
		t.Errorf("PruneExport of a file = %v, want ErrNotDir", err)
	}
}
