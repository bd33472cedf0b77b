package transport

import (
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
	frags  map[string][]int
}

func (t *mapTable) rankFor(path string) int {
	path = Clean(path)
	best, bestLen := 0, -1
	for prefix, rank := range t.places {
		if len(prefix) > bestLen && HasPathPrefix(path, prefix) {
			best, bestLen = rank, len(prefix)
		}
	}
	if dir, comp := t.fragFor(path, bestLen); dir != "" {
		ranks := t.frags[dir]
		return ranks[FragIndex(comp, len(ranks))]
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
	if dir, comp := t.fragFor(path, bestLen); dir != "" {
		return fmt.Sprintf("%s#%d", dir, FragIndex(comp, len(t.frags[dir])))
	}
	return best
}

func (t *mapTable) fragFor(path string, placedLen int) (dir, comp string) {
	bestLen := -1
	for d := range t.frags {
		if len(d) >= placedLen && len(d) > bestLen &&
			HasPathPrefix(path, d) && len(path) > len(d) {
			dir, bestLen = d, len(d)
		}
	}
	if dir == "" {
		return "", ""
	}
	rest := path[len(dir):]
	if dir == "/" {
		rest = path
	}
	rest = strings.TrimPrefix(rest, "/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return dir, rest
}

// routeDirs are the directories generated tables place and split: "/",
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
// added, moved and removed, with and without "/" placed, directories split
// at, above and below the best placement and then unsplit — through the
// table and through the map walk it replaced, and wants the same rank and
// the same subtree for every query after every step.
func TestRouteScanMatchesMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for table := 0; table < 300; table++ {
		tb := NewTable()
		ref := &mapTable{places: map[string]int{}, frags: map[string][]int{}}
		for step := 0; step < 12; step++ {
			dir := routeDirs[rng.Intn(len(routeDirs))]
			switch op := rng.Intn(10); {
			case op < 5:
				rank := rng.Intn(4)
				tb.Place(dir, rank)
				ref.places[Clean(dir)] = rank
			case op < 7:
				tb.Remove(dir)
				delete(ref.places, Clean(dir))
			case op < 9:
				ranks := []int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}[:2+rng.Intn(2)]
				tb.SplitDir(dir, ranks)
				ref.frags[Clean(dir)] = ranks
			default:
				tb.SplitDir(dir, nil)
				delete(ref.frags, Clean(dir))
			}
			for _, q := range routeQueries {
				if got, want := tb.RankFor(q), ref.rankFor(q); got != want {
					t.Fatalf("table %d step %d: RankFor(%q) = %d, map walk %d (places %v, splits %v)",
						table, step, q, got, want, ref.places, ref.frags)
				}
				if got, want := tb.SubtreeFor(q), ref.subtreeFor(q); got != want {
					t.Fatalf("table %d step %d: SubtreeFor(%q) = %q, map walk %q (places %v, splits %v)",
						table, step, q, got, want, ref.places, ref.frags)
				}
			}
		}
	}
}

// TestRoutePathsSorted: Paths lists the placed subtrees in path order,
// whatever order the scan keeps them in.
func TestRoutePathsSorted(t *testing.T) {
	tb := NewTable()
	for _, p := range []string{"/b/c", "/a", "/", "/b", "/a/bc/d"} {
		tb.Place(p, 1)
	}
	tb.Place("/b", 2) // a move keeps one entry
	tb.Remove("/a/bc/d")
	if got := strings.Join(tb.Paths(), " "); got != "/ /a /b /b/c" {
		t.Fatalf("Paths = %s, want / /a /b /b/c", got)
	}
}

// TestRouteIsRedirectNilDoesNotAllocate: every served RPC asks whether
// its reply error is a redirect, and a nil error must cost nothing.
func TestRouteIsRedirectNilDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { IsRedirect(nil) }); n != 0 {
		t.Fatalf("IsRedirect(nil) allocates %.1f objects, want 0", n)
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
