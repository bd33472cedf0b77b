package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// mapTable is the table as it was before placements became one
// longest-first slice: a path → rank map that every lookup walks whole,
// keeping the longest covering prefix. It is the reference the scan is
// checked against.
type mapTable struct {
	places map[string]int
}

func (t *mapTable) rankFor(path string) int {
	path = Clean(path)
	best, bestLen := 0, -1
	for prefix, rank := range t.places {
		if len(prefix) > bestLen && HasPathPrefix(path, prefix) {
			best, bestLen = rank, len(prefix)
		}
	}
	return best
}

func (t *mapTable) subtreeFor(path string) string {
	path = Clean(path)
	best, bestLen := "/", -1
	for prefix := range t.places {
		if len(prefix) > bestLen && HasPathPrefix(path, prefix) {
			best, bestLen = prefix, len(prefix)
		}
	}
	return best
}

// routeDirs are the directories generated tables place: "/",
// nested prefixes, and siblings that share a string prefix but not a
// component ("/job1" and "/job10").
var routeDirs = []string{
	"/", "/a", "/a/b", "/a/b/c", "/a/bc", "/ab",
	"/job1", "/job10", "/job1/x", "/job10/x", "/job1/x/y",
}

// routeQueries are the paths looked up: every directory, paths below
// them, and unclean spellings ("", no leading slash, trailing and doubled
// slashes) that every holder of subtree paths must clean alike.
var routeQueries = func() []string {
	q := []string{"", "a", "a/b/", "/a/", "/a//b", "/a/b//", "//", "job1", "/job10/",
		"/job1/x/", "/nowhere", "/nowhere/deep/file", "/a/b/c/d/e"}
	for _, d := range routeDirs {
		q = append(q, d, d+"/f", d+"/f/g", d+"/x/y", strings.TrimSuffix(d, "/")+"0")
	}
	return q
}()

// TestRouteScanMatchesMapWalk drives generated tables — placements
// added and moved, with and without "/" placed — through the table and
// through the map walk it replaced, and wants the same rank and the same
// subtree for every query after every step.
func TestRouteScanMatchesMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for table := 0; table < 300; table++ {
		tb := NewTable()
		ref := &mapTable{places: map[string]int{}}
		for step := 0; step < 12; step++ {
			dir, rank := routeDirs[rng.Intn(len(routeDirs))], rng.Intn(4)
			tb.Place(dir, rank)
			ref.places[Clean(dir)] = rank
			for _, q := range routeQueries {
				if got, want := tb.RankFor(q), ref.rankFor(q); got != want {
					t.Fatalf("table %d step %d: RankFor(%q) = %d, map walk %d (places %v)",
						table, step, q, got, want, ref.places)
				}
				if got, want := tb.SubtreeFor(q), ref.subtreeFor(q); got != want {
					t.Fatalf("table %d step %d: SubtreeFor(%q) = %q, map walk %q (places %v)",
						table, step, q, got, want, ref.places)
				}
			}
		}
	}
}

// TestRoutePathsSorted: Paths lists the placed subtrees in path order,
// whatever order the scan keeps them in.
func TestRoutePathsSorted(t *testing.T) {
	tb := NewTable()
	for _, p := range []string{"/b/c", "/a", "/", "/b"} {
		tb.Place(p, 1)
	}
	tb.Place("/b", 2) // a move keeps one entry
	if got := strings.Join(tb.Paths(), " "); got != "/ /a /b /b/c" {
		t.Fatalf("Paths = %s, want / /a /b /b/c", got)
	}
}

// TestWrongRankError pins the redirect error type clients retry on.
func TestWrongRankError(t *testing.T) {
	frozen := &WrongRankError{Path: "/job", Frozen: true}
	moved := &WrongRankError{Path: "/job", Rank: 2}
	for _, err := range []error{frozen, moved} {
		wrapped := fmt.Errorf("rpc: %w", err)
		got, ok := IsRedirect(wrapped)
		if !ok || got != err {
			t.Errorf("IsRedirect(%v) = %v, %v", wrapped, got, ok)
		}
	}
	if _, ok := IsRedirect(errors.New("plain")); ok {
		t.Errorf("plain error classified as redirect")
	}
	if _, ok := IsRedirect(nil); ok {
		t.Errorf("nil classified as redirect")
	}
	if frozen.Error() == moved.Error() {
		t.Errorf("frozen and moved redirects should render differently")
	}
}

// redirectCases are errors IsRedirect must classify as errors.As does:
// nil, plain, a redirect bare, wrapped, doubly wrapped, joined (first,
// last and nested), a typed nil, and chains with no redirect in them.
func redirectCases() []error {
	moved := &WrongRankError{Path: "/job", Rank: 2}
	frozen := &WrongRankError{Path: "/job", Frozen: true}
	plain := errors.New("plain")
	return []error{
		nil,
		plain,
		moved,
		fmt.Errorf("rpc: %w", frozen),
		fmt.Errorf("outer: %w", fmt.Errorf("rpc: %w", moved)),
		fmt.Errorf("rpc: %v", moved), // formatted, not wrapped
		errors.Join(moved, plain),
		errors.Join(plain, frozen),
		errors.Join(plain, fmt.Errorf("x: %w", errors.Join(plain, moved))),
		fmt.Errorf("two: %w, %w", plain, frozen),
		errors.Join(plain, fmt.Errorf("x: %w", plain)),
		fmt.Errorf("typed nil: %w", (*WrongRankError)(nil)),
	}
}

// TestRouteIsRedirectMatchesErrorsAs: IsRedirect's own walk of the unwrap
// chain finds the same redirect errors.As finds, or none when it finds
// none.
func TestRouteIsRedirectMatchesErrorsAs(t *testing.T) {
	for i, err := range redirectCases() {
		var want *WrongRankError
		wantOK := errors.As(err, &want)
		got, ok := IsRedirect(err)
		if ok != wantOK || got != want {
			t.Errorf("case %d: IsRedirect(%v) = %v, %v; errors.As gives %v, %v", i, err, got, ok, want, wantOK)
		}
	}
}

// TestRouteIsRedirectDoesNotAllocate: every RPC asks whether its reply
// error is a redirect, and the check costs nothing whatever the error —
// nil for a served RPC, a not-found lookup for a cap-less create.
func TestRouteIsRedirectDoesNotAllocate(t *testing.T) {
	for i, err := range redirectCases() {
		if n := testing.AllocsPerRun(100, func() { IsRedirect(err) }); n != 0 {
			t.Errorf("case %d: IsRedirect(%v) allocates %.1f objects, want 0", i, err, n)
		}
	}
}

// BenchmarkRankFor is the shape of the host benchmark's transport.route_ns
// row: 64 placed sibling subtrees, a lookup three levels below one.
func BenchmarkRankFor(b *testing.B) {
	tb := NewTable()
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/jobs/j%02d", i)
		tb.Place(paths[i], i%4)
		paths[i] += "/sub/file"
	}
	acc := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += tb.RankFor(paths[i%64])
	}
	if acc < 0 {
		b.Fatal(acc)
	}
}
