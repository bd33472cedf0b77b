package namespace

import (
	"math/bits"
	"slices"
	"strings"
)

// A listing snapshot is rebuilt by sorting a directory's names while the
// rank holds its domain, so the sort is on every client's path. A
// comparison sort of n names pays about n·log₂ n string comparisons, each
// a call that reads two names from their first byte. sortNames is an
// in-place MSD radix sort (McIlroy, Bostic and McIlroy's American flag
// sort): one pass counts the names of a part by their byte at the part's
// depth and a second moves each name into its byte's bucket, so a pass
// reads each name's byte twice and branches on nothing but the bucket
// walk. A part whose names all share the byte skips the whole prefix they
// share in one pass instead of one pass a byte, and a small part is
// insertion sorted from its depth. Names already in order, as a
// directory whose files were created in order holds them, cost one
// comparison each.

const (
	// sortCutoff is the part size at or below which sortNames insertion
	// sorts.
	sortCutoff = 16

	// sortBudget scales the work sortNames may do before it hands the
	// rest to slices.Sort: sortBudget·n·⌈log₂ n⌉ steps for n names. A
	// set of listed names needs a small part of it; names built to make
	// every pass split off one name spend it and end in
	// pattern-defeating quicksort, which caps the worst case at O(n log
	// n) comparisons whatever names a client chooses.
	sortBudget = 4

	// sortMaxSplits bounds the nesting of radix passes that split a
	// part, and so the stack, which grows by a pass's two count tables
	// at each.
	sortMaxSplits = 64
)

// sortNames sorts names in place into byte-wise order, the order
// slices.Sort gives, and allocates nothing.
func sortNames(names []string) { sortNamesSteps(names) }

// sortNamesSteps is sortNames, returning the work it did: a step per
// comparison of the in-order scan and of insertion sorts, per name in
// each radix or common-prefix pass, and m·⌈log₂ m⌉ for a part of m
// names that slices.Sort finished.
func sortNamesSteps(names []string) int {
	ns := nameSorter{budget: sortBudget * len(names) * bits.Len(uint(len(names)))}
	// Any set not in order leaves this scan at its first descent.
	for i := 1; i < len(names); i++ {
		ns.steps++
		if names[i] < names[i-1] {
			ns.sort(names, 0, 0)
			break
		}
	}
	return ns.steps
}

type nameSorter struct {
	budget, steps int
}

// sort orders a, whose names all share their first d bytes, nested under
// splits radix passes that split a part.
func (ns *nameSorter) sort(a []string, d, splits int) {
	if len(a) <= sortCutoff {
		ns.insertion(a, d)
		return
	}
	// Bucket 0 holds the names that end at d, bucket c+1 those whose
	// byte at d is c.
	var count, next [257]uint32
	var lo, hi int
	for {
		if ns.steps >= ns.budget || splits >= sortMaxSplits {
			slices.Sort(a)
			ns.steps += len(a) * bits.Len(uint(len(a)))
			return
		}
		ns.steps += len(a)
		lo, hi = 256, 0
		for _, s := range a {
			c := bucketOf(s, d)
			count[c]++
			lo, hi = min(lo, c), max(hi, c)
		}
		if count[hi] != uint32(len(a)) {
			break
		}
		// One bucket: every name ends at d, and they are equal, or they
		// share a byte and perhaps more.
		count[hi] = 0
		if hi == 0 {
			return
		}
		ns.steps += len(a)
		d += commonPrefix(a, d)
	}
	// Move every name into its bucket, one cycle at a time: next[c] is
	// the first slot of bucket c not yet holding a name of c, and
	// bucket c ends before count[c].
	var at uint32
	for c := lo; c <= hi; c++ {
		next[c] = at
		at += count[c]
		count[c] = at
	}
	for c := lo; c <= hi; c++ {
		for next[c] < count[c] {
			s := a[next[c]]
			for k := bucketOf(s, d); k != c; k = bucketOf(s, d) {
				s, a[next[k]] = a[next[k]], s
				next[k]++
			}
			a[next[c]] = s
			next[c]++
		}
	}
	// The names of bucket 0 are equal.
	var start uint32
	for c := lo; c <= hi; c++ {
		if b := a[start:count[c]]; c > 0 && len(b) > 1 {
			ns.sort(b, d+1, splits+1)
		}
		start = count[c]
	}
}

// insertion sorts a, whose names all share their first d bytes.
func (ns *nameSorter) insertion(a []string, d int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0; j-- {
			ns.steps++
			// The bytes at d decide most comparisons without a call.
			x, y := bucketOf(a[j], d), bucketOf(a[j-1], d)
			if x > y || x == y && (x == 0 || a[j][d+1:] >= a[j-1][d+1:]) {
				break
			}
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// bucketOf is s's radix bucket at depth d: 0 when s ends there, and its
// byte + 1 when not.
func bucketOf(s string, d int) int {
	if d < len(s) {
		return int(s[d]) + 1
	}
	return 0
}

// commonPrefix returns how many bytes from d every name of a shares, all
// of which share their first d bytes. A name that starts with the prefix
// found so far costs one comparison; one that does not shortens it.
func commonPrefix(a []string, d int) int {
	p := a[0][d:]
	for _, s := range a[1:] {
		s = s[d:]
		if strings.HasPrefix(s, p) {
			continue
		}
		i := 0
		for i < len(p) && i < len(s) && p[i] == s[i] {
			i++
		}
		p = p[:i]
	}
	return len(p)
}
