package namespace

// Inode numbers are issued in runs — a rank allocates upward from its band,
// a decoupled client out of the contiguous grant it was handed (paper
// §IV-C) — so the store indexes them by page rather than hashing each one:
// a get or put next to the previous one is a shift, a compare and an index,
// and growing the index costs one page per pageSize inodes, never a rehash
// of what is already there.

const (
	pageBits = 6 // 64 slots: a 512-byte page
	pageSize = 1 << pageBits

	// noPage is a page key no inode number shifts down to.
	noPage = ^Ino(0)
)

// inoPage holds the inodes numbered key<<pageBits up to the next page.
// The slots are pointers, not Inode values: a handler that holds an *Inode
// across a yield must keep seeing that inode after an unlink, and a
// subtree that is pruned and imported back under the same numbers must get
// new structs, not the stale ones.
type inoPage [pageSize]*Inode

// inoTable is the store's inode index. Reads write the remembered page,
// so a table has one owner at a time — the lock domain of the daemon whose
// store it is, or a caller under Runtime.Exclusive; unlike the map it
// replaced, two concurrent readers race.
type inoTable struct {
	pages map[Ino]*inoPage // by ino >> pageBits; a page with no inode is released
	n     int

	// last is the page touched last and lastKey its key, noPage when
	// there is none.
	last    *inoPage
	lastKey Ino
}

func newInoTable() inoTable {
	return inoTable{pages: make(map[Ino]*inoPage), lastKey: noPage}
}

// page returns the page holding ino and remembers it, nil when no inode
// lives there.
func (t *inoTable) page(ino Ino) *inoPage {
	key := ino >> pageBits
	if key != t.lastKey {
		pg := t.pages[key]
		if pg == nil {
			return nil
		}
		t.last, t.lastKey = pg, key
	}
	return t.last
}

// get returns the inode numbered ino, nil when there is none.
func (t *inoTable) get(ino Ino) *Inode {
	if pg := t.page(ino); pg != nil {
		return pg[ino%pageSize]
	}
	return nil
}

// put stores in under its own number, replacing any inode already there.
func (t *inoTable) put(in *Inode) {
	pg := t.page(in.Ino)
	if pg == nil {
		pg = new(inoPage)
		t.last, t.lastKey = pg, in.Ino>>pageBits
		t.pages[t.lastKey] = pg
	}
	if pg[in.Ino%pageSize] == nil {
		t.n++
	}
	pg[in.Ino%pageSize] = in
}

// del removes the inode numbered ino, and its page when that was the
// page's last inode.
func (t *inoTable) del(ino Ino) {
	pg := t.page(ino)
	if pg == nil || pg[ino%pageSize] == nil {
		return
	}
	pg[ino%pageSize] = nil
	t.n--
	for _, in := range pg {
		if in != nil {
			return
		}
	}
	delete(t.pages, ino>>pageBits)
	t.last, t.lastKey = nil, noPage
}

func (t *inoTable) len() int { return t.n }

// each calls fn for every inode, in no particular order. fn must not put
// or del.
func (t *inoTable) each(fn func(*Inode)) {
	for _, pg := range t.pages {
		for _, in := range pg {
			if in != nil {
				fn(in)
			}
		}
	}
}
