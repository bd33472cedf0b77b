package chaos

import (
	"fmt"
	"slices"
	"strings"

	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
)

// placement is where a cell's creates may land.
type placement int

const (
	// journalDirs: the subtree root or any directory whose mkdir is in
	// the current client journal. That keeps every journal (and every
	// persisted image) self-contained, so recovery can always replay it.
	journalDirs placement = iota
	// rootOnly: the subtree root, drawing nothing. Every merged batch is
	// then self-contained, so batches can replay in any permutation.
	rootOnly
	// rpcDirs: the subtree root or any directory made by RPC since the
	// last crash of either end.
	rpcDirs
)

// slot is one entry of a cell's op mix: op runs when the step's roll is
// below the bound and not below the previous slot's.
type slot struct {
	below float64
	op    func(*driver, runtime.Task)
}

// cell is one row of the cell table: everything that differs between
// consistency levels, and nothing else. Durability is the second axis
// and lives in opPersist.
type cell struct {
	label   string // op-name prefix in violation text
	mix     []slot // weighted op mix; the last slot's bound is 1
	place   placement
	fileTag string // name prefixes; the sequence number is shared
	dirTag  string

	// provisional: a journal ack does not displace an acked RPC twin in
	// the phantom bound (oracle.ackJournal).
	provisional bool
	// adopts: re-merging an acked global image makes its accepted ops
	// visible. Not so through the CRDT resolver — an op superseded by a
	// later merged tombstone stays dead; the image's ops stay in the
	// phantom bound, which admits whatever the re-merge legitimately
	// revives.
	adopts bool
	// captures: every merged batch is kept for the permutation replay,
	// and directory identity is structural — the resolver renders
	// directories with server-assigned inodes, so only their presence is
	// part of the contract.
	captures bool

	contracts []string // names in the contracts list, shared ones first
}

// interfere is the speculative mix's weight of interfering RPC creates:
// enough that client predictions get falsified and rollback fires.
const interfere float64 = 0.3

// shared is the contract list of every cell.
var shared = []string{"visible", "no-duplicate-inode", "background",
	"phantom-walk", "grant-range", "store-check", "merge-queue-drained"}

func with(own ...string) []string { return append(slices.Clone(shared), own...) }

// cells is the cell table, indexed by consistency.
var cells = [policy.NumConsistencies]cell{
	policy.ConsInvisible: {
		label: "local", fileTag: "f", dirTag: "d",
		// Invisible subtrees never merge mid-run — that is the contract
		// under test — so the merge weight falls through to create.
		mix:       []slot{{0.55, (*driver).opCreate}, {0.70, (*driver).opMkdir}, {0.85, (*driver).opPersist}, {1, (*driver).opCreate}},
		adopts:    true,
		contracts: with("invisible"),
	},
	policy.ConsWeak: {
		label: "local", fileTag: "f", dirTag: "d",
		mix:       []slot{{0.55, (*driver).opCreate}, {0.70, (*driver).opMkdir}, {0.85, (*driver).opPersist}, {1, (*driver).opMerge}},
		adopts:    true,
		contracts: with(),
	},
	policy.ConsStrong: {
		label: "rpc", fileTag: "f", dirTag: "d", place: rpcDirs,
		mix:       []slot{{0.70, (*driver).opCreate}, {0.80, (*driver).opMkdir}, {1, (*driver).opFlush}},
		contracts: with(),
	},
	policy.ConsSpeculative: {
		label: "speculative", fileTag: "f", dirTag: "d", provisional: true,
		mix: []slot{{0.40, (*driver).opCreate}, {0.50, (*driver).opMkdir}, {0.50 + interfere, (*driver).opInterfere},
			{0.60 + interfere, (*driver).opPersist}, {1, (*driver).opMerge}},
		adopts:    true,
		contracts: with("exact-rollback"),
	},
	policy.ConsStrongEventual: {
		label: "strong-eventual", fileTag: "s", dirTag: "t", place: rootOnly,
		mix: []slot{{0.45, (*driver).opCreate}, {0.58, (*driver).opMkdir}, {0.73, (*driver).opUnlink},
			{0.87, (*driver).opPersist}, {1, (*driver).opMerge}},
		captures:  true,
		contracts: with("permutation-convergence"),
	},
}

// phase is when a contract is checked.
type phase uint8

const (
	atBoundary phase = 1 << iota // between two workload ops, after fault recovery
	atMerge                      // right after a client merge
	atEnd                        // after the end-of-schedule recovery
)

// contract is one named obligation. A cell carries it when the cell's
// row lists the name; plan narrows it further.
type contract struct {
	name  string
	when  phase
	plan  func(*Plan) bool // nil: every plan
	check func(*driver)
}

func (k *contract) applies(c *cell, pl *Plan) bool {
	return slices.Contains(c.contracts, k.name) && (k.plan == nil || k.plan(pl))
}

// contracts is every obligation the harness checks, in report order.
var contracts = []contract{
	{name: "permutation-convergence", when: atEnd, check: (*driver).checkPermutations},
	{name: "exact-rollback", when: atMerge, check: (*driver).checkRollback},
	{name: "visible", when: atBoundary | atMerge | atEnd, check: (*driver).checkVisible},
	{name: "invisible", when: atBoundary, check: (*driver).checkInvisible},
	{name: "no-duplicate-inode", when: atBoundary | atEnd, check: (*driver).checkInoReuse},
	{name: "background", when: atEnd, check: (*driver).checkBG,
		plan: func(pl *Plan) bool { return pl.Background }},
	{name: "phantom-walk", when: atEnd, check: (*driver).checkPhantoms},
	{name: "grant-range", when: atEnd, check: (*driver).checkGrants},
	{name: "store-check", when: atEnd, check: (*driver).checkStores},
	{name: "merge-queue-drained", when: atEnd, check: (*driver).checkMergeQueue},
}

// check runs every contract of the cell that is due in the given phase.
func (d *driver) check(when phase) {
	for i := range contracts {
		if k := &contracts[i]; k.when&when != 0 && k.applies(d.cell, d.plan) {
			k.check(d)
		}
	}
}

// --- speculative: interference and exact rollback ---

// opInterfere creates a file through the strong RPC path at the subtree
// root, under a name the speculative client has journaled (or is about
// to journal) — the interference that falsifies a prediction and forces
// a rollback. The RPC ack is authoritative: the name now belongs to the
// interferer, and the client's twin must be rejected at merge.
func (d *driver) opInterfere(p runtime.Task) {
	if d.stolen == nil {
		d.stolen = make(map[string]bool)
	}
	root := d.parents[0]
	// Prefer poisoning a name already journaled at the root — a
	// guaranteed conflict. Fall back to the next name the local workload
	// will draw.
	name := ""
	for _, u := range d.o.journal {
		if !u.dir && u.parent == uint64(root.ino) && !d.stolen[u.name] {
			name = u.name
			break
		}
	}
	if name == "" {
		name = fmt.Sprintf("%s%06d", d.cell.fileTag, d.nameSeq)
		if d.stolen[name] {
			d.opCreate(p)
			return
		}
	}
	d.stolen[name] = true
	ino, err := d.c.Create(p, root.ino, name, 0o600)
	if err != nil {
		d.violate("interfering create %s/%s: %v", root.path, name, err)
		return
	}
	d.o.ackRPC(update{
		path: root.path + "/" + name, ino: uint64(ino),
		parent: uint64(root.ino), name: name,
	}, false)
}

// checkRollback holds the last merge to the speculative contract: every
// rolled-back op is gone from the client image, and every accepted op is
// still there with its acked inode. (The phantom walk holds the global
// half: a rolled-back op never reaches the namespace.) Only meaningful
// until the client's next crash wipes the image.
func (d *driver) checkRollback() {
	for i, u := range d.merged {
		ino, err := d.c.LocalLookup(namespace.Ino(u.parent), u.name)
		switch {
		case slices.Contains(d.rolledBack, i):
			if err == nil {
				d.violate("rolled-back op %s still visible in the client image", u.path)
			}
		case err != nil:
			d.violate("accepted op %s missing from the client image: %v", u.path, err)
		case uint64(ino) != u.ino:
			d.violate("accepted op %s has ino %d in the client image, want %d",
				u.path, uint64(ino), u.ino)
		}
	}
}

// --- strong-eventual: unlinks and the permutation replay ---

// opUnlink removes a name created since the last merge, so every merged
// batch stays self-contained.
func (d *driver) opUnlink(p runtime.Task) {
	if len(d.unlinkable) == 0 {
		d.opCreate(p)
		return
	}
	root := d.parents[0]
	i := d.rng.Intn(len(d.unlinkable))
	name := d.unlinkable[i]
	if err := d.c.LocalUnlink(p, root.ino, name); err != nil {
		d.violate("%s unlink %s/%s: %v", d.cell.label, root.path, name, err)
		return
	}
	d.unlinkable = append(d.unlinkable[:i], d.unlinkable[i+1:]...)
	d.o.ackJournal(update{
		path:   root.path + "/" + name,
		parent: uint64(root.ino), name: name, unlink: true,
	}, false)
}

// chainEnt is one directory on the path from the namespace root to the
// workload root, as the permutation replay rebuilds it.
type chainEnt struct {
	name string
	ino  namespace.Ino
}

// recordChain snapshots the path and inode of every directory from the
// namespace root down to the workload root, so the permutation replay
// can rebuild an identical skeleton in a fresh store.
func (d *driver) recordChain() bool {
	st := d.srv.Store()
	prefix := ""
	for _, comp := range strings.Split(strings.TrimPrefix(mainPath, "/"), "/") {
		prefix += "/" + comp
		in, err := st.Resolve(prefix)
		if err != nil {
			d.violate("setup: resolve %s: %v", prefix, err)
			return false
		}
		d.chain = append(d.chain, chainEnt{comp, in.Ino})
	}
	return true
}

// replayImage replays the captured merge batches in the given order
// through a fresh store and CRDT resolver and renders the converged
// image. Batch-internal event order is preserved — the permutation is
// over merge batches, exactly the reordering concurrent clients and
// retries can produce.
func (d *driver) replayImage(order []int) (string, error) {
	st := namespace.NewStore()
	cur := namespace.RootIno
	for _, e := range d.chain {
		in, err := st.Mkdir(cur, e.name, namespace.CreateAttrs{Ino: e.ino, Mode: 0o755})
		if err != nil {
			return "", err
		}
		cur = in.Ino
	}
	m := namespace.NewSEMerger(st)
	for _, bi := range order {
		for _, ev := range d.batches[bi] {
			if err := m.ApplyEvent(ev); err != nil {
				return "", err
			}
		}
	}
	return namespace.SEImageOf(st, cur)
}

// checkPermutations is the strong-eventual convergence contract: the
// captured merge batches replayed in identity, reversed, and two random
// orders through a fresh store and CRDT resolver must all render
// byte-identical images, and the identity image must match the live
// namespace unless an MDS crash legitimately destroyed merged state.
func (d *driver) checkPermutations() {
	if len(d.batches) == 0 {
		return
	}
	n := len(d.batches)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	base, err := d.replayImage(identity)
	if err != nil {
		d.violate("permutation replay (identity order): %v", err)
		return
	}
	orders := [][]int{make([]int, n)}
	for i := range orders[0] {
		orders[0][i] = n - 1 - i
	}
	for k := 0; k < 2; k++ {
		perm := append([]int(nil), identity...)
		d.rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		orders = append(orders, perm)
	}
	for _, order := range orders {
		img, err := d.replayImage(order)
		if err != nil {
			d.violate("permutation replay %v: %v", order, err)
			continue
		}
		if img != base {
			d.violate("merge order %v renders a different image than the identity order", order)
		}
	}
	if d.mdsCrashed || d.noLiveCompare {
		return
	}
	root, err := d.mds().Store().Resolve(mainPath)
	if err != nil {
		d.violate("permutation check: resolve %s: %v", mainPath, err)
		return
	}
	live, err := namespace.SEImageOf(d.mds().Store(), root.Ino)
	if err != nil {
		d.violate("permutation check: render live image: %v", err)
		return
	}
	if live != base {
		d.violate("replayed merge batches render a different image than the live namespace")
	}
}
