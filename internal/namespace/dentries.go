package namespace

import (
	"hash/maphash"
	"iter"
	"math/bits"
)

// A directory's dentries live in a name table rather than a Go map. A map
// that grows copies every slot it holds into a table twice the size, so a
// name ends up costing two to three times its slot in garbage. The table
// keeps its entries in chunks that are allocated once and never copied,
// and finds them through a separate index of 4-byte slots: growing the
// table re-allocates only the index.

const (
	smallBits = 3
	// smallDir is how many names a table holds before it builds an
	// index: up to here a lookup scans the first chunk.
	smallDir = 1 << smallBits

	chunkBits = 8
	// chunkMax is the size of the largest chunk, so a large directory
	// allocates in 6 KB pieces (see chunkOf).
	chunkMax = 1 << chunkBits

	// minSlots is the size of the first index, built when the table
	// outgrows smallDir names.
	minSlots = 4 * smallDir

	// tombSlot marks an index slot whose entry was deleted. Its position
	// bits are all ones, which no live slot's are (see dentryIndex).
	tombSlot = ^uint32(0)
)

// dentrySeed seeds the index hash. Clients choose the names, so a hash
// they could predict would let one client force every probe of a
// directory through all its names; like Go's maps, the seed is random per
// process. Nothing seen from outside depends on it: the table iterates in
// position order and listings sort.
var dentrySeed = maphash.MakeSeed()

// dentry is one entry of a name table. A free entry has an empty name
// and, in ino, the next free position + 1 (0 ends the free list).
type dentry struct {
	name string
	ino  Ino
}

// Dentries is a name table mapping dentry names to inode numbers: a
// directory fragment's dentries, a client's dentry cache for one
// directory, and the numbers of the strong-eventual merger's summaries
// of one directory (SEMerger.entry). The zero value is an empty table, and a nil *Dentries reads
// as one. Names must not be empty.
//
// Every entry has a position, handed out in order and reused through a
// free list once deleted, and never moves. A table that has never held
// more than smallDir names keeps no index; a larger one hashes into
// dentryIndex. Iteration is in position order, which is neither insertion
// nor name order.
type Dentries struct {
	first *[smallDir]dentry // positions [0, smallDir)
	big   *dentryIndex      // nil until the table first holds more than smallDir names
	n     uint32            // live names
	used  uint32            // positions handed out
	free  uint32            // first free position + 1, 0 when none
}

// dentryIndex is the index of a table that has outgrown smallDir names,
// and the chunks holding its positions past the first chunk. Once built it
// stays, as a map's buckets do.
//
// slots is open-addressed with linear probing, at most three quarters full
// counting tombstones. A slot is 0 when empty, tombSlot when deleted, and
// otherwise its entry's position + 1 in the low bits below len(slots) and
// a tag of the name's hash in the bits above. Positions never outnumber
// three quarters of the slots — a new position is handed out only when
// every position is live, and the live names fit in that much of the
// index — so the position bits of a live slot are never all ones and
// positions are bounded by the index size alone, not by the tag.
type dentryIndex struct {
	slots  []uint32
	chunks [][]dentry // positions from smallDir on; see chunkOf
	fill   uint32     // slots live or tombstoned
}

// Len returns the number of names in the table.
func (t *Dentries) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// Get returns the inode name maps to.
func (t *Dentries) Get(name string) (Ino, bool) {
	if t == nil || name == "" {
		return 0, false
	}
	if e, _, _ := t.find(name); e != nil {
		return e.ino, true
	}
	return 0, false
}

// Set maps name to ino, adding name when the table lacks it.
func (t *Dentries) Set(name string, ino Ino) {
	if name == "" {
		panic("namespace: empty dentry name")
	}
	e, _, pr := t.find(name)
	if e != nil {
		e.ino = ino
		return
	}
	t.insert(pr, name, ino)
}

// Delete removes name, if present.
func (t *Dentries) Delete(name string) {
	if t == nil || name == "" {
		return
	}
	e, pos, pr := t.find(name)
	if e == nil {
		return
	}
	if ix := t.big; ix != nil {
		mask := uint32(len(ix.slots) - 1)
		if ix.slots[(pr.slot+1)&mask] == 0 {
			// No probe continues past an empty slot, so none needs
			// this one to go on either.
			ix.slots[pr.slot] = 0
			ix.fill--
		} else {
			ix.slots[pr.slot] = tombSlot
		}
	}
	*e = dentry{ino: Ino(t.free)}
	t.free = pos + 1
	t.n--
}

// All iterates over the table in position order. The loop body may
// delete the name it was handed, but must not add one.
func (t *Dentries) All() iter.Seq2[string, Ino] {
	return func(yield func(string, Ino) bool) {
		if t == nil {
			return
		}
		for pos := uint32(0); pos < t.used; pos++ {
			if e := t.at(pos); e.name != "" && !yield(e.name, e.ino) {
				return
			}
		}
	}
}

// at returns the entry at position pos.
func (t *Dentries) at(pos uint32) *dentry {
	if pos < smallDir {
		return &t.first[pos]
	}
	c, off, _ := chunkOf(pos)
	return &t.big.chunks[c][off]
}

// chunkOf returns the chunk of big.chunks holding position pos, at least
// smallDir, pos's offset in it and the chunk's size. Chunks come in pairs that halve a
// power-of-two run of positions — [8, 12) and [12, 16), [16, 24) and
// [24, 32), … — up to chunkMax positions each, and hold chunkMax from
// there on. A new chunk adds at most half the positions before it, so at
// most a third of a table's positions are waiting for names.
func chunkOf(pos uint32) (c int, off, size uint32) {
	if pos < 2*chunkMax {
		h := bits.Len32(pos) - 2
		return 2*(h-smallBits+1) + int(pos>>h&1), pos & (1<<h - 1), 1 << h
	}
	return int(pos>>chunkBits) + 2*(chunkBits-smallBits), pos % chunkMax, chunkMax
}

// probe is where find ended: the index slot holding the name, or the one
// insert puts it in, and the name's hash, so an insert after a miss hashes
// nothing again. It is valid until the table next changes.
type probe struct {
	hash uint64
	slot uint32
}

// find looks name up and returns its entry and position, a nil entry
// when it is absent, and the probe that ended the search.
func (t *Dentries) find(name string) (*dentry, uint32, probe) {
	ix := t.big
	if ix == nil {
		for pos := uint32(0); pos < t.used; pos++ {
			if e := &t.first[pos]; e.name == name {
				return e, pos, probe{}
			}
		}
		return nil, 0, probe{}
	}
	h := maphash.String(dentrySeed, name)
	mask := uint32(len(ix.slots) - 1)
	tag := uint32(h>>32) &^ mask
	hole := tombSlot
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		switch s := ix.slots[i]; {
		case s == 0:
			if hole == tombSlot {
				hole = i
			}
			return nil, 0, probe{hash: h, slot: hole}
		case s == tombSlot:
			if hole == tombSlot {
				hole = i
			}
		case s&^mask == tag:
			pos := s&mask - 1
			if e := t.at(pos); e.name == name {
				return e, pos, probe{hash: h, slot: i}
			}
		}
	}
}

// insert adds name, which find just failed to find with pr.
func (t *Dentries) insert(pr probe, name string, ino Ino) {
	var pos uint32
	if t.free != 0 {
		pos = t.free - 1
		t.free = uint32(t.at(pos).ino)
	} else {
		pos = t.newPos()
	}
	*t.at(pos) = dentry{name, ino}
	t.n++
	ix := t.big
	switch {
	case ix == nil:
	case ix.slots == nil || ix.slots[pr.slot] != tombSlot && 4*(ix.fill+1) > 3*uint32(len(ix.slots)):
		t.reindex()
	case ix.slots[pr.slot] == tombSlot:
		ix.slots[pr.slot] = slotOf(pr.hash, pos, len(ix.slots))
	default:
		ix.slots[pr.slot] = slotOf(pr.hash, pos, len(ix.slots))
		ix.fill++
	}
}

// newPos hands out the next unused position, allocating the chunk it
// starts. The first position past the first chunk starts the index,
// which insert then builds.
func (t *Dentries) newPos() uint32 {
	pos := t.used
	t.used++
	switch {
	case pos == 0:
		t.first = new([smallDir]dentry)
	case pos < smallDir:
	default:
		if pos == smallDir {
			t.big = &dentryIndex{}
		}
		if _, off, size := chunkOf(pos); off == 0 {
			t.big.chunks = append(t.big.chunks, make([]dentry, size))
		}
	}
	return pos
}

// reindex rebuilds the index from the entries, dropping its tombstones.
// It keeps the index's size while the live names fill at most 9/16 of it,
// so a rebuild forced by tombstones leaves room for 3/16 of the slots in
// new names before the next; otherwise it doubles the size.
func (t *Dentries) reindex() {
	ix := t.big
	size := max(minSlots, len(ix.slots))
	for 16*(t.n+1) > 9*uint32(size) {
		size *= 2
	}
	slots := make([]uint32, size)
	mask := uint32(size - 1)
	for pos := uint32(0); pos < t.used; pos++ {
		e := t.at(pos)
		if e.name == "" {
			continue
		}
		h := maphash.String(dentrySeed, e.name)
		i := uint32(h) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = slotOf(h, pos, size)
	}
	ix.slots, ix.fill = slots, t.n
}

// slotOf is the index slot of the entry at pos whose name hashed to h, in
// an index of size slots.
func slotOf(h uint64, pos uint32, size int) uint32 {
	mask := uint32(size - 1)
	return uint32(h>>32)&^mask | (pos + 1)
}
