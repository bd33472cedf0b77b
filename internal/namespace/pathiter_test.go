package namespace

import (
	"fmt"
	"path"
	"strings"
	"testing"
)

// splitPath is the allocating reference SplitIter must agree with: clean
// p, then split it into components; the root is the empty list.
func splitPath(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// collect drains an iterator into a slice for comparison with splitPath.
func collect(p string) []string {
	var out []string
	for it := SplitIter(p); ; {
		comp, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, comp)
	}
}

// TestSplitIterMatchesSplitPath: the iterator must agree with splitPath
// on every input shape, clean or not.
func TestSplitIterMatchesSplitPath(t *testing.T) {
	cases := []string{
		"/", "", "/a", "/a/b/c", "a/b", "/a/", "//a//b", "/a/./b",
		"/a/../b", "/..", "/.", "a", "/home/alice/job0", "/a//",
		"/very/deep/path/with/many/components/inside",
	}
	for _, p := range cases {
		want := splitPath(p)
		got := collect(p)
		if len(got) != len(want) {
			t.Errorf("SplitIter(%q) = %v, splitPath = %v", p, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("SplitIter(%q)[%d] = %q, want %q", p, i, got[i], want[i])
			}
		}
	}
}

func TestIsCleanPath(t *testing.T) {
	clean := []string{"/", "/a", "/a/b", "/a.b/c..d", "/...", "/a/...b"}
	unclean := []string{"", "a", "/a/", "//", "/a//b", "/./a", "/a/..", "/..", "/."}
	for _, p := range clean {
		if !isCleanPath(p) {
			t.Errorf("isCleanPath(%q) = false, want true", p)
		}
	}
	for _, p := range unclean {
		if isCleanPath(p) {
			t.Errorf("isCleanPath(%q) = true, want false", p)
		}
	}
}

// TestResolveAllocFree pins the hot-path property: resolving an existing
// clean path must not allocate (the seed paid a strings.Split per call).
func TestResolveAllocFree(t *testing.T) {
	s := NewStore()
	if _, err := s.MkdirAll("/home/alice/job0", CreateAttrs{Mode: 0755}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Resolve("/home/alice/job0"); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Resolve of a clean path allocates %.1f times, want 0", avg)
	}
}

// BenchmarkResolve measures the path-resolution hot path used by every
// routed request.
func BenchmarkResolve(b *testing.B) {
	s := NewStore()
	for i := 0; i < 16; i++ {
		if _, err := s.MkdirAll(fmt.Sprintf("/home/client%d/job", i), CreateAttrs{Mode: 0755}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Resolve("/home/client7/job"); err != nil {
			b.Fatal(err)
		}
	}
}
