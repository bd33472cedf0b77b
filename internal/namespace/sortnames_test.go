package namespace

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// nameSet builds n names of one of the benchmark's four shapes, shuffled.
func nameSet(shape string, n int, rng *rand.Rand) []string {
	names := make([]string, n)
	for i := range names {
		switch shape {
		case "bench": // the host benchmark's file names
			names[i] = "f" + strconv.FormatInt(int64(i), 36) + "-" + strconv.FormatInt(int64(1296+rng.Intn(45360)), 36)
		case "random":
			b := make([]byte, 6+rng.Intn(14))
			for j := range b {
				b[j] = "abcdefghijklmnopqrstuvwxyz0123456789_-."[rng.Intn(39)]
			}
			names[i] = string(b)
		case "fileN":
			names[i] = "file." + strconv.Itoa(i)
		case "prefix64":
			names[i] = strings.Repeat("p", 64) + strconv.Itoa(rng.Intn(n))
		default:
			panic(shape)
		}
	}
	rng.Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// stepBound is the work sortNames may do on n names whatever they are:
// 8·n·⌈log₂ n⌉ steps, twice its budget, which leaves room for the pass
// that crosses the budget, slices.Sort's share and the insertion sorts.
func stepBound(n int) int {
	if n < 2 {
		return 0
	}
	return 8 * n * bits.Len(uint(n-1))
}

// checkSorted asserts that sortNames orders names as slices.Sort does,
// within stepBound, and returns the steps it took.
func checkSorted(t *testing.T, what string, names []string) int {
	t.Helper()
	want := slices.Clone(names)
	slices.Sort(want)
	got := slices.Clone(names)
	steps := sortNamesSteps(got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: name %d is %q, want %q", what, i, got[i], want[i])
		}
	}
	if bound := stepBound(len(names)); steps > bound {
		t.Fatalf("%s: %d names took %d steps, over %d", what, len(names), steps, bound)
	}
	return steps
}

func TestSortNamesShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []string{"bench", "random", "fileN", "prefix64"} {
		for _, n := range []int{0, 1, 2, 16, 17, 100, 5000} {
			checkSorted(t, fmt.Sprintf("%s/%d", shape, n), nameSet(shape, n, rng))
		}
	}
}

// medianOfThreeKiller is Musser's sequence of 1..n (n even) that drives a
// quicksort pivoting on the median of its first, middle and last elements
// to quadratic time.
func medianOfThreeKiller(n int) []int {
	k := n / 2
	a := make([]int, n)
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			a[i-1] = i
		} else {
			a[i-1] = k + i - 1
		}
		a[k+i-1] = 2 * i
	}
	return a
}

// TestSortNamesWorstCase runs sortNames on names a client could choose to
// make it slow or wrong: each set must come out as slices.Sort orders it
// and within stepBound. The last set makes every radix pass split off one
// name, so it also runs the kernel out of budget into slices.Sort.
func TestSortNamesWorstCase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	sets := map[string][]string{}

	prefix := strings.Repeat("shared/", 29)[:200]
	for i := 0; i < n; i++ {
		sets["200-byte prefix"] = append(sets["200-byte prefix"], prefix+strconv.Itoa(rng.Intn(n)))
	}
	// Every prefix of a few long names, shuffled: each is a prefix of
	// the next longer one of its family.
	for f := 0; f < 4; f++ {
		long := make([]byte, 300)
		for i := range long {
			long[i] = byte('a' + rng.Intn(3))
		}
		for l := 1; l <= len(long); l++ {
			sets["prefixes of one another"] = append(sets["prefixes of one another"], string(long[:l]))
		}
	}
	for _, v := range medianOfThreeKiller(n) {
		sets["median-of-three killer"] = append(sets["median-of-three killer"], fmt.Sprintf("%08d", v))
	}
	for i := 0; i < n; i++ {
		sets["1-byte names"] = append(sets["1-byte names"], string([]byte{byte(rng.Intn(256))}))
	}
	for i := 0; i < n; i++ {
		b := make([]byte, rng.Intn(9))
		for j := range b {
			b[j] = []byte{0x00, 0x01, 0x7f, 0x80, 0xc3, 0xff}[rng.Intn(6)]
		}
		sets["bytes 0x00 and 0x80 and above"] = append(sets["bytes 0x00 and 0x80 and above"], string(b))
	}
	// (ab)^k·c for every k: each radix pass parts one name from the
	// rest, and the part left over shares one more byte.
	for k := 0; k < n; k++ {
		sets["one name split off per pass"] = append(sets["one name split off per pass"], strings.Repeat("ab", k)+"c")
	}

	for what, names := range sets {
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		steps := checkSorted(t, what, names)
		sorted := slices.Clone(names)
		slices.Sort(sorted)
		checkSorted(t, what+", sorted", sorted)
		slices.Reverse(sorted)
		checkSorted(t, what+", reversed", sorted)
		if what == "one name split off per pass" {
			if budget := sortBudget * n * bits.Len(n); steps < budget {
				t.Fatalf("%s: %d steps never spent the budget of %d", what, steps, budget)
			}
		}
	}
}

// TestSortNamesAllocatesNothing: the kernel sorts in place, on its own
// passes and when it hands a part to slices.Sort.
func TestSortNamesAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	peel := make([]string, 500)
	for k := range peel {
		peel[k] = strings.Repeat("a", k) + "b"
	}
	for what, src := range map[string][]string{"bench": nameSet("bench", 1000, rng), "split off per pass": peel} {
		buf := make([]string, len(src))
		if avg := testing.AllocsPerRun(20, func() {
			copy(buf, src)
			sortNames(buf)
		}); avg != 0 {
			t.Fatalf("%s: sortNames allocates %.1f times, want 0", what, avg)
		}
	}
}

// FuzzSortNames checks the kernel against slices.Sort on arbitrary byte
// strings: each input is a run of names, each a length byte (mod 24, so
// that names share prefixes) followed by that many bytes.
func FuzzSortNames(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03abc\x02ab\x01a\x00\x03abd\x04abc\x00\x01\x80\x01\xff"))
	var seed []byte
	for _, name := range nameSet("fileN", 40, rand.New(rand.NewSource(1))) {
		seed = append(append(seed, byte(len(name))), name...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var names []string
		for len(data) > 0 {
			l := min(int(data[0])%24, len(data)-1)
			names = append(names, string(data[1:1+l]))
			data = data[1+l:]
		}
		checkSorted(t, "fuzz", names)
	})
}

var sortSink []string

// BenchmarkSortNames sorts four name sets with sortNames and, beside it,
// sort.Strings: the host benchmark's f<n₃₆>-<r₃₆> file names, random
// 6–19-byte names, file.N, and names sharing a 64-byte prefix.
func BenchmarkSortNames(b *testing.B) {
	for _, shape := range []string{"bench", "random", "fileN", "prefix64"} {
		for _, n := range []int{1000, 100000} {
			src := nameSet(shape, n, rand.New(rand.NewSource(1)))
			buf := make([]string, n)
			for _, sorter := range []struct {
				name string
				sort func([]string)
			}{{"kernel", sortNames}, {"sort.Strings", sort.Strings}} {
				b.Run(fmt.Sprintf("%s/%d/%s", shape, n, sorter.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(buf, src)
						sorter.sort(buf)
					}
					sortSink = buf
				})
			}
		}
	}
}
