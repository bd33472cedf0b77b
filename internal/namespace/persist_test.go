package namespace

import (
	"errors"
	"math/rand"
	"path"
	"slices"
	"strings"
	"testing"
)

func buildSample(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if _, err := s.MkdirAll("/proj/data", CreateAttrs{Mode: 0755}); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Resolve("/proj/data")
	for _, n := range []string{"a.dat", "b.dat"} {
		if _, err := s.Create(d.Ino, n, CreateAttrs{Mode: 0644, UID: 7, GID: 8}); err != nil {
			t.Fatal(err)
		}
	}
	proj, _ := s.Resolve("/proj")
	if _, err := s.Create(proj.Ino, "README", CreateAttrs{Mode: 0444}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDirObjectName(t *testing.T) {
	if got := DirObjectName(RootIno); got != "1.00000000" {
		t.Fatalf("root object name = %q", got)
	}
	if got := DirObjectName(255); !strings.HasPrefix(got, "ff.") {
		t.Fatalf("object name = %q", got)
	}
}

func TestEncodeDecodeDir(t *testing.T) {
	s := buildSample(t)
	d, _ := s.Resolve("/proj/data")
	data, err := s.EncodeDir(d.Ino)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	obj, err := DecodeDir(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if obj.Ino != d.Ino || obj.Name != "data" {
		t.Fatalf("decoded = %+v", obj)
	}
	if len(obj.Entries) != 2 || obj.Entries[0].Name != "a.dat" {
		t.Fatalf("entries = %+v", obj.Entries)
	}
	if obj.Entries[0].UID != 7 || obj.Entries[0].Mode != 0644 {
		t.Fatalf("entry attrs = %+v", obj.Entries[0])
	}
}

func TestEncodeDirErrors(t *testing.T) {
	s := buildSample(t)
	f, _ := s.Resolve("/proj/README")
	if _, err := s.EncodeDir(f.Ino); err == nil {
		t.Fatal("encoded a file as a directory")
	}
	if _, err := s.EncodeDir(99999); err == nil {
		t.Fatal("encoded a missing inode")
	}
}

func TestDecodeDirErrors(t *testing.T) {
	s := buildSample(t)
	d, _ := s.Resolve("/proj")
	data, _ := s.EncodeDir(d.Ino)

	if _, err := DecodeDir(nil); err == nil {
		t.Fatal("decoded nil")
	}
	if _, err := DecodeDir([]byte("WRONGMAGICxxxx")); err == nil {
		t.Fatal("decoded bad magic")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[10] ^= 0xff
	if _, err := DecodeDir(corrupt); err == nil {
		t.Fatal("decoded corrupt object")
	}
	if _, err := DecodeDir(data[:len(data)-6]); err == nil {
		t.Fatal("decoded truncated object")
	}
}

func TestInstallDirRecovery(t *testing.T) {
	// Flush every directory of a built store to objects, then recover
	// into a fresh store and compare.
	src := buildSample(t)
	dirs, _, err := src.Subtree("/")
	if err != nil {
		t.Fatal(err)
	}
	images := make(map[Ino][]byte)
	for _, ino := range dirs {
		data, err := src.EncodeDir(ino)
		if err != nil {
			t.Fatalf("encode %d: %v", ino, err)
		}
		images[ino] = data
	}

	dst := NewStore()
	for _, ino := range dirs { // root-first order
		obj, err := DecodeDir(images[ino])
		if err != nil {
			t.Fatalf("decode %d: %v", ino, err)
		}
		if err := dst.InstallDir(obj); err != nil {
			t.Fatalf("install %d: %v", ino, err)
		}
	}
	if !Equal(src, dst) {
		t.Fatal("recovered namespace differs from source")
	}
}

func TestInstallDirReplacesStaleFiles(t *testing.T) {
	src := buildSample(t)
	d, _ := src.Resolve("/proj/data")
	image, _ := src.EncodeDir(d.Ino)

	// Mutate source: remove one file, add another, then install the old
	// image over it; the store must match the image for file dentries.
	src.Unlink(d.Ino, "a.dat")
	src.Create(d.Ino, "new.dat", CreateAttrs{})
	obj, _ := DecodeDir(image)
	if err := src.InstallDir(obj); err != nil {
		t.Fatalf("install: %v", err)
	}
	names, _ := src.ReadDir(d.Ino)
	if len(names) != 2 || names[0] != "a.dat" || names[1] != "b.dat" {
		t.Fatalf("after install: %v", names)
	}
}

// TestInstallDirs: a store's directory objects installed in any order
// rebuild it, parents first; a Parent cycle and an orphan each fail,
// naming the object, and a cycle fails before anything is installed.
func TestInstallDirs(t *testing.T) {
	src := NewStore()
	for _, dir := range []string{"/a/b/c/d", "/a/x", "/e/f", "/g"} {
		if _, err := src.MkdirAll(dir, CreateAttrs{Mode: 0755}); err != nil {
			t.Fatal(err)
		}
	}
	for _, file := range []string{"/a/b/c/d/leaf", "/a/one", "/e/f/two"} {
		dir, _ := src.Resolve(path.Dir(file))
		if _, err := src.Create(dir.Ino, path.Base(file), CreateAttrs{Mode: 0644}); err != nil {
			t.Fatal(err)
		}
	}
	dirs, _, err := src.Subtree("/")
	if err != nil {
		t.Fatal(err)
	}
	objects := func() []*DirObject {
		objs := make([]*DirObject, len(dirs))
		for i, ino := range dirs {
			data, err := src.EncodeDir(ino)
			if err == nil {
				objs[i], err = DecodeDir(data)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return objs
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		objs := objects()
		rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
		dst := NewStore()
		if err := dst.InstallDirs(objs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !Equal(src, dst) {
			t.Fatalf("round %d: the store installed from shuffled objects differs from the source", round)
		}
	}

	b, _ := src.Resolve("/a/b")
	c, _ := src.Resolve("/a/b/c")
	byIno := func(objs []*DirObject, ino Ino) *DirObject {
		for _, obj := range objs {
			if obj.Ino == ino {
				return obj
			}
		}
		t.Fatalf("no object for %d", ino)
		return nil
	}
	objs := objects()
	byIno(objs, b.Ino).Parent = c.Ino // b -> c -> b
	dst := NewStore()
	err = dst.InstallDirs(objs)
	if want := "directory object " + DirObjectName(b.Ino) + ": parent cycle"; !errors.Is(err, ErrInval) || !strings.Contains(err.Error(), want) {
		t.Errorf("install with a Parent cycle = %v, want %q (ErrInval)", err, want)
	}
	if dst.Len() != 1 {
		t.Errorf("a failed cycle check installed %d inodes, want only the root", dst.Len()-1)
	}

	objs = objects()
	objs = slices.DeleteFunc(objs, func(obj *DirObject) bool { return obj.Ino == b.Ino })
	err = NewStore().InstallDirs(objs)
	if want := "orphan directory object " + DirObjectName(c.Ino); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("install without /a/b's object = %v, want %q", err, want)
	}
}

func TestDirsOrder(t *testing.T) {
	s := buildSample(t)
	dirs, _, err := s.Subtree("/")
	if err != nil || len(dirs) != 3 || dirs[0] != RootIno {
		t.Fatalf("dirs = %v", dirs)
	}
	// Parents come before children.
	seen := map[Ino]bool{}
	for _, ino := range dirs {
		in, _ := s.Get(ino)
		if ino != RootIno && !seen[in.Parent] {
			t.Fatalf("child %d before parent %d", ino, in.Parent)
		}
		seen[ino] = true
	}
}

func TestEqual(t *testing.T) {
	a := buildSample(t)
	b := buildSample(t)
	if !Equal(a, b) {
		t.Fatal("identical stores not equal")
	}
	d, _ := b.Resolve("/proj/data")
	b.Create(d.Ino, "extra", CreateAttrs{})
	if Equal(a, b) {
		t.Fatal("different stores reported equal")
	}
}
