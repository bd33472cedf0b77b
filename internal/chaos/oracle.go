package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cudele/internal/journal"
)

// update is one acked metadata update as the oracle remembers it: the
// absolute namespace path it creates, the inode the ack promised, and
// enough of the journal event to byte-check a recovered image.
type update struct {
	path    string
	ino     uint64
	parent  uint64
	name    string
	dir     bool
	granted bool // inode drawn from a decoupled grant
	unlink  bool // removal of path, not creation (strong-eventual cells)
}

// globalState tracks what the oracle knows about the client's journal
// image in the object store.
type globalState int

const (
	// globalNone: no Global Persist has been attempted.
	globalNone globalState = iota
	// globalGood: the last Global Persist was acked — the image must
	// read back as exactly the acked update sequence.
	globalGood
	// globalDirty: a Global Persist failed after possibly writing a
	// torn prefix or destroying part of an older image. The store may
	// hold anything from nothing to a stale mix; recovery may fail, but
	// whatever it yields must stay inside the acked-update set.
	globalDirty
)

// oracle is the pure in-memory model of what each policy guarantees.
// It never touches the simulation — the driver feeds it acks and
// faults, and the checks compare it against the real MDS store.
//
// The model is a set of "homes" an update can live in:
//
//	journal    the client's in-memory journal (since the last reset)
//	localImage the journal snapshot an acked Local Persist wrote
//	globalImage the journal snapshot an acked Global Persist wrote
//	mdsMem     merged / RPC-acked updates — must be visible now
//	mdsTail    RPC updates in the MDS journal, not yet flush-acked
//	mdsDurable flush-acked MDS-journal updates — survive an MDS crash
//
// Faults move updates between homes exactly as the contracts allow: a
// client crash empties journal, an MDS crash resets mdsMem to
// mdsDurable plus whatever visible update the rank recovered anyway,
// recovery paths restore from the images.
type oracle struct {
	// pset is every update ever acked, by path. The phantom bound: the
	// real namespace may never hold a subtree entry outside pset.
	pset map[string]update

	journal     []update
	localImage  []update
	hasLocal    bool
	globalImage []update
	global      globalState

	mdsMem     map[string]update
	mdsTail    []update
	mdsDurable map[string]update

	// converges: merges go through the CRDT resolver (the
	// strong-eventual cell), which keeps an entry a merged unlink removed
	// dead against a later delivery of its create. buried is, by path,
	// the inode each merged unlink removed since the last MDS crash, whose
	// resolver summaries die with the rank.
	converges bool
	buried    map[string]uint64
}

func newOracle(converges bool) *oracle {
	return &oracle{
		pset:       make(map[string]update),
		mdsMem:     make(map[string]update),
		mdsDurable: make(map[string]update),
		converges:  converges,
		buried:     make(map[string]uint64),
	}
}

// ackJournal records a decoupled op acked into the client journal.
// Creates and mkdirs enter the phantom bound; an unlink does not displace
// the create it removes (the entry may legitimately stay visible if the
// unlink is lost with the client before merging). A provisional ack
// (speculative cells) does not displace an entry already there — an
// interfering twin owns the path until a merge accepts this op, and a
// rejected op is scrubbed again at merge time, restoring the phantom
// bound's full strength.
func (o *oracle) ackJournal(u update, provisional bool) {
	if _, taken := o.pset[u.path]; !u.unlink && !(provisional && taken) {
		o.pset[u.path] = u
	}
	o.journal = append(o.journal, u)
}

// ackRPC records a strong (RPC) update: visible immediately; journaled
// additionally lands it in the MDS journal tail (stream enabled).
func (o *oracle) ackRPC(u update, journaled bool) {
	o.pset[u.path] = u
	o.mdsMem[u.path] = u
	if journaled {
		o.mdsTail = append(o.mdsTail, u)
	}
}

// land makes a merged batch visible, in batch order: an unlink removes
// whatever the same batch created before it, every other accepted op
// becomes visible under its acked inode. Ops at the rejected indices
// change nothing visible; with scrub set (a client merge, not a
// re-merged image) they also leave the phantom bound — their paths must
// never appear in the namespace, unless an interfering twin with a
// different inode owns the path. Where merges converge, a create
// delivered again after a merged unlink removed its inode (a recovered
// Local Persist image from before the unlink) stays dead: its tag is
// older than the tombstone. It stays in the phantom bound.
func (o *oracle) land(batch []update, rejected []int, scrub bool) {
	for i, u := range batch {
		switch {
		case slices.Contains(rejected, i):
			if cur, ok := o.pset[u.path]; scrub && ok && cur.ino == u.ino {
				delete(o.pset, u.path)
			}
		case u.unlink:
			if cur, ok := o.mdsMem[u.path]; ok && o.converges {
				o.buried[u.path] = cur.ino
			}
			delete(o.mdsMem, u.path)
		default:
			o.pset[u.path] = u
			if ino, ok := o.buried[u.path]; !ok || ino != u.ino {
				o.mdsMem[u.path] = u
			}
		}
	}
}

// specMirror replays the MDS's speculative validation over the oracle's
// model of the global view (mdsMem plus the subtree root) and returns
// the indices the real merge must reject — conflict prediction, not
// conflict observation. Accepted ops extend the model as they land, so
// rejection cascades below a rejected mkdir exactly like the real
// validator's missing-parent rule.
func (o *oracle) specMirror(ops []update, root string) []int {
	kind := map[string]bool{root: true} // path -> is-directory
	for p, u := range o.mdsMem {
		kind[p] = u.dir
	}
	var rej []int
	for i, u := range ops {
		parent := u.path[:strings.LastIndexByte(u.path, '/')]
		isDir, ok := kind[parent]
		if !ok || !isDir {
			rej = append(rej, i)
			continue
		}
		if _, exists := kind[u.path]; exists {
			rej = append(rej, i)
			continue
		}
		kind[u.path] = u.dir
	}
	return rej
}

// localPersistOK snapshots the journal as the local-disk image.
func (o *oracle) localPersistOK() {
	o.localImage = append([]update(nil), o.journal...)
	o.hasLocal = true
}

// recoverLocalOK: a restarted client reloaded the local image into its
// journal.
func (o *oracle) recoverLocalOK() {
	o.journal = append([]update(nil), o.localImage...)
}

// globalPersistOK snapshots the journal as the acked global image.
func (o *oracle) globalPersistOK() {
	o.globalImage = append([]update(nil), o.journal...)
	o.global = globalGood
}

// globalPersistFail: the persist errored mid-write; whatever image the
// store holds is no longer trustworthy.
func (o *oracle) globalPersistFail() { o.global = globalDirty }

// flushOK: a FlushJournal ack moved the MDS journal tail to durable.
func (o *oracle) flushOK() {
	for _, u := range o.mdsTail {
		o.mdsDurable[u.path] = u
	}
	o.mdsTail = nil
}

// clientCrash loses the client's volatile state: the in-memory journal.
// Local and global images, and anything already on the MDS, survive.
func (o *oracle) clientCrash() {
	o.journal = nil
}

// mdsCrash loses the MDS's volatile state: in-memory merges and any
// unflushed journal tail. Recovery replays the durable set, which must
// be visible again. A visible update the policy did not make durable may
// be recovered too — a handoff's save writes every ack the source holds
// into the directory objects — and recovered reports whether the
// restarted rank holds u under its acked inode: such an update stays
// visible, so the merge validation that meets it is predicted.
func (o *oracle) mdsCrash(recovered func(u update) bool) {
	for p, u := range o.mdsMem {
		if _, durable := o.mdsDurable[p]; !durable && !recovered(u) {
			delete(o.mdsMem, p)
		}
	}
	for p, u := range o.mdsDurable {
		o.mdsMem[p] = u
	}
	o.mdsTail = nil
	clear(o.buried)
}

// sortedKeys returns m's keys sorted, so violation output is
// deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// matchGlobal checks a fetched journal image against the acked global
// snapshot: same length, same events in order.
func (o *oracle) matchGlobal(evs []*journal.Event) string {
	if len(evs) != len(o.globalImage) {
		return "global image length mismatch"
	}
	for i, ev := range evs {
		u := o.globalImage[i]
		wantType := journal.EvCreate
		switch {
		case u.dir:
			wantType = journal.EvMkdir
		case u.unlink:
			wantType = journal.EvUnlink
		}
		if ev.Type != wantType || ev.Ino != u.ino ||
			ev.Parent != u.parent || ev.Name != u.name {
			return fmt.Sprintf("global image event mismatch at index %d", i)
		}
	}
	return ""
}
