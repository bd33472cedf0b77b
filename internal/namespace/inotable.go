package namespace

import "slices"

// Inode numbers are issued in runs — a rank allocates upward from its band,
// a decoupled client out of the contiguous grant it was handed (paper
// §IV-C) — so the store finds an inode by arithmetic on its number, not by
// hashing it. The index is a short sorted list of runs; a run is a slice
// of page pointers indexed by page number minus the run's first, and a
// page holds pageSize inode pointers. A get is a binary search over the
// few runs a store holds (about one per band or grant it has inodes from),
// a subtraction and two indexes. A run grows by append only as far as its
// highest page in use, so a dense run costs a pointer per page; a number
// far from every run starts a run of its own, so a scatter of numbers — a
// hostile directory object's — costs a page each, never the span between
// them.

const (
	pageBits = 6 // 64 slots: a 512-byte page
	pageSize = 1 << pageBits

	// runSlack is how many empty page slots a run may hold beyond one per
	// page in use when it grows over a gap: a number that would need
	// more starts a run of its own.
	runSlack = 16
)

// inoPage holds the inodes numbered key<<pageBits up to the next page.
// The slots are pointers, not Inode values: a handler that holds an *Inode
// across a yield must keep seeing that inode after an unlink, and a
// subtree that is pruned and imported back under the same numbers must get
// new structs, not the stale ones.
type inoPage [pageSize]*Inode

// inoRun holds the pages keyed lo (ino >> pageBits) to lo+len(pages)-1;
// a nil slot is a page with no inode. Its first and last slots are never
// nil.
type inoRun struct {
	lo    Ino
	pages []*inoPage
	used  int // slots that are not nil
}

// inoTable is the store's inode index. Only put and del write it: a get
// writes nothing, so any number of gets may run at once, but not beside a
// put or del — the table has one writer at a time, the lock domain of the
// daemon whose store it is, or a caller under Runtime.Exclusive.
type inoTable struct {
	runs []inoRun // by lo, disjoint; a run whose last page goes is released
	n    int
}

// newInoTable returns an empty table.
func newInoTable() inoTable { return inoTable{} }

// search returns how many runs start at or below page key: key is in
// runs[i-1] if any run holds it, and a run started for it goes at i.
func (t *inoTable) search(key Ino) int {
	i, j := 0, len(t.runs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if t.runs[h].lo <= key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// get returns the inode numbered ino, nil when there is none.
func (t *inoTable) get(ino Ino) *Inode {
	key := ino >> pageBits
	if i := t.search(key); i > 0 {
		r := &t.runs[i-1]
		if off := key - r.lo; off < Ino(len(r.pages)) {
			if pg := r.pages[off]; pg != nil {
				return pg[ino%pageSize]
			}
		}
	}
	return nil
}

// put stores in under its own number, replacing any inode already there.
func (t *inoTable) put(in *Inode) {
	slot := &t.page(in.Ino >> pageBits)[in.Ino%pageSize]
	if *slot == nil {
		t.n++
	}
	*slot = in
}

// page returns page key, adding it when the table has none: in the run
// that spans key, else at the end of the run below or the front of the
// run above when that leaves no more than runSlack empty slots beyond one
// per page in use, else in a run of its own.
func (t *inoTable) page(key Ino) *inoPage {
	i := t.search(key)
	if i > 0 {
		r := &t.runs[i-1]
		if off := key - r.lo; off < Ino(len(r.pages)) {
			if r.pages[off] == nil {
				r.pages[off] = new(inoPage)
				r.used++
			}
			return r.pages[off]
		} else if off == Ino(len(r.pages)) || r.fits(off+1) {
			pg := new(inoPage)
			r.pages = append(append(r.pages, make([]*inoPage, off-Ino(len(r.pages)))...), pg)
			r.used++
			return pg
		}
	}
	pg := new(inoPage)
	if i < len(t.runs) {
		r := &t.runs[i]
		if gap := r.lo - key; gap == 1 || r.fits(Ino(len(r.pages))+gap) {
			pages := make([]*inoPage, gap, Ino(len(r.pages))+gap)
			pages[0] = pg
			r.lo, r.pages = key, append(pages, r.pages...)
			r.used++
			return pg
		}
	}
	t.runs = slices.Insert(t.runs, i, inoRun{lo: key, pages: []*inoPage{pg}, used: 1})
	return pg
}

// fits reports whether r may grow over a gap to n slots with one more
// page in use.
func (r *inoRun) fits(n Ino) bool { return n <= Ino(2*(r.used+1)+runSlack) }

// del removes the inode numbered ino, and its page when that was the
// page's last inode, and the page's run when that was its last page. A run
// that loses a page at either end is trimmed to its pages in use; the
// slots trimmed off stay allocated until the run grows into a new array or
// goes, 8 bytes for each 512-byte page the run once spanned.
func (t *inoTable) del(ino Ino) {
	key := ino >> pageBits
	i := t.search(key)
	if i == 0 {
		return
	}
	r := &t.runs[i-1]
	off := key - r.lo
	if off >= Ino(len(r.pages)) || r.pages[off] == nil || r.pages[off][ino%pageSize] == nil {
		return
	}
	pg := r.pages[off]
	pg[ino%pageSize] = nil
	t.n--
	for _, in := range pg {
		if in != nil {
			return
		}
	}
	r.pages[off] = nil
	if r.used--; r.used == 0 {
		t.runs = slices.Delete(t.runs, i-1, i)
		return
	}
	for r.pages[len(r.pages)-1] == nil {
		r.pages = r.pages[:len(r.pages)-1]
	}
	for r.pages[0] == nil {
		r.lo, r.pages = r.lo+1, r.pages[1:]
	}
}

func (t *inoTable) len() int { return t.n }

// each calls fn for every inode in number order. fn must not put or del.
func (t *inoTable) each(fn func(*Inode)) {
	for _, r := range t.runs {
		for _, pg := range r.pages {
			if pg == nil {
				continue
			}
			for _, in := range pg {
				if in != nil {
					fn(in)
				}
			}
		}
	}
}
