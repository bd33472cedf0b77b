// Package monitor implements the cluster monitor daemon (paper §III-C):
// users present a directory path and a policies configuration; the monitor
// versions it, distributes it to the metadata servers, and issues the
// subtree's inode grant. In a multi-rank cluster the monitor
// also owns subtree placement, apart from any policy: Place and Migrate
// move a subtree to a metadata rank in the cluster's routing table, the
// one table the ranks check and every client routes by.
package monitor

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/obs"
	"cudele/internal/policy"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// ErrUnknownSubtree is returned when unregistering a path that was never
// registered.
var ErrUnknownSubtree = errors.New("monitor: unknown subtree")

// A rank's client-grant band holds bandSlots slots of 2^grantShift
// inodes, starting at 2^40 + rank<<34: far from server-assigned numbers,
// like CephFS prealloc ranges. The monitor issues every grant, so no two
// registrations are ever handed overlapping ranges.
const (
	grantShift = 24
	bandSlots  = 1 << 10
)

// grantAt is the first inode of slot in rank's client-grant band.
func grantAt(rank int, slot uint64) namespace.Ino {
	return namespace.Ino(uint64(1)<<40 + uint64(rank)<<34 + slot<<grantShift)
}

// commitLatency approximates the monitor quorum commit plus map
// distribution to the daemons.
const commitLatency = 2 * time.Millisecond

// SubtreeState is the ownership lifecycle state of a subtree. Ownership
// always cycles owned → exporting → owned: a record is exporting from the
// freeze to the table flip; aborts return the subtree to owned on the
// source without an epoch change.
type SubtreeState uint8

const (
	// SubtreeOwned: exactly one rank serves the subtree.
	SubtreeOwned SubtreeState = iota
	// SubtreeExporting: the owner has frozen the subtree and is
	// streaming it to another rank, which does not serve it until the
	// monitor flips the routing table; requests bounce with a Frozen
	// redirect until the handoff commits or aborts.
	SubtreeExporting
)

// Subtree is the monitor's one record of a subtree: the unit of
// placement, migration, balancing and policy registration. Which rank
// owns it is not stored here — the routing table (Table().RankFor) is
// the only record of that.
type Subtree struct {
	Path  string
	State SubtreeState // lifecycle position
	Epoch uint64       // cluster-map epoch of the record's last change
	Moves int          // committed migrations of this subtree

	// Policy is the registration: the monitor's own copy of the
	// registered policy, stamped with its epoch, owner and inode grant. A
	// nil Policy means the subtree is only placed or migrated.
	Policy *policy.Policy
}

// Monitor manages cluster state changes. Its state, together with the
// metadata cluster's authoritative table, belongs to the cluster's
// control-plane lock domain, which every task-taking method enters.
type Monitor struct {
	eng      runtime.Runtime
	dom      runtime.Domain
	cl       *mds.Cluster
	epoch    uint64
	migSeq   uint64 // last assigned migration sequence (export records)
	subtrees map[string]*Subtree
	// nextSlot is each rank's next unissued grant slot. It only grows: a
	// recouple, a migration or a rank restart forgets an owner, not that
	// a client may still hold inodes drawn from the range.
	nextSlot []uint64
}

// New creates a monitor governing a metadata cluster.
func New(eng runtime.Runtime, cl *mds.Cluster) *Monitor {
	return &Monitor{
		eng:      eng,
		dom:      cl.Domain(),
		cl:       cl,
		subtrees: make(map[string]*Subtree),
		nextSlot: make([]uint64, cl.Ranks()),
	}
}

// RegisterPolicy registers pol (a parsed policies.yml, §III-C) for path
// on behalf of owner: it issues the subtree's inode grant — the policy's
// allocated_inodes, or the cluster default, from the next slots of the
// band of the rank that serves path — stamps a copy of pol with the new
// epoch, the owner and the grant, and installs that copy on every rank
// that holds path's root. pol itself is never written. Registering the
// same path again replaces its registration and issues a fresh grant. A
// registration never moves its subtree (Place does that): it is one
// commit latency and one cluster-map epoch.
func (m *Monitor) RegisterPolicy(p runtime.Task, path string, pol *policy.Policy, owner string) (_ *Subtree, err error) {
	m.enter(p, "register")
	defer m.leave(p)
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	target := m.cl.Table().RankFor(path)
	n := uint64(m.cl.Config().AllocatedInodesDefault)
	if pol.AllocatedInodes > 0 {
		n = uint64(pol.AllocatedInodes)
	}
	slot, slots := m.nextSlot[target], (n+1<<grantShift-1)>>grantShift
	if slot+slots > bandSlots {
		return nil, fmt.Errorf("monitor: rank %d grant band: %w", target, namespace.ErrNoSpace)
	}
	// The slots are taken now, because the commit and the rank's install
	// below yield and a registration running meanwhile must be handed
	// another range. A registration that fails gives them back, unless a
	// later one has taken slots past them.
	m.nextSlot[target] = slot + slots
	defer func() {
		if err != nil && m.nextSlot[target] == slot+slots {
			m.nextSlot[target] = slot
		}
	}()
	p.Sleep(commitLatency)
	m.epoch++
	reg := *pol
	reg.Version, reg.Owner, reg.GrantLo, reg.GrantN = m.epoch, owner, uint64(grantAt(target, slot)), n
	if err := m.deliver(p, m.holders(path), path, &reg); err != nil {
		return nil, err
	}
	st := m.record(path)
	st.Policy, st.Epoch = &reg, m.epoch
	return st, nil
}

// Unregister removes the subtree's policy and returns it to the global
// namespace's semantics. Placement is left alone: pinning a subtree to a
// rank is orthogonal to its consistency/durability policy, so the record
// stays, without a registration.
func (m *Monitor) Unregister(p runtime.Task, path string) error {
	m.enter(p, "unregister")
	defer m.leave(p)
	st, ok := m.Lookup(path)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSubtree, path)
	}
	p.Sleep(commitLatency)
	m.epoch++
	if err := m.deliver(p, m.holders(path), path, nil); err != nil {
		return err
	}
	st.Policy, st.Epoch = nil, m.epoch
	return nil
}

// deliver installs the registration reg of the subtree at path, or
// clears it when reg is nil, on each of holders, the ranks that hold the
// subtree's root (Monitor.holders). A holder that refuses fails the
// change, and the caller then records nothing: the holders already done
// are handed back the registration the monitor still lists, and a
// refusing holder that is down (ErrShutdown) gets it from its restart.
func (m *Monitor) deliver(p runtime.Task, holders []int, path string, reg *policy.Policy) error {
	for i, r := range holders {
		if err := m.cl.Rank(r).Post(p, &mds.AttachMsg{Path: path, Policy: reg}).(*mds.AttachReply).Err; err != nil {
			var listed *policy.Policy
			if st, ok := m.Subtree(path); ok {
				listed = st.Policy
			}
			_ = m.deliver(p, holders[:i], path, listed) // a rank that refuses it gets it at its restart
			return err
		}
	}
	return nil
}

// holders lists the ranks that hold the root of the subtree at path: the
// owner first, then each rank that owns a placement under path, since the
// ancestor chain that rank imported holds the root, and its interfere
// check and Stream decision read the registration there.
func (m *Monitor) holders(path string) []int {
	t, path := m.cl.Table(), transport.Clean(path)
	holders := []int{t.RankFor(path)}
	for _, placed := range t.Paths() {
		if r := t.RankFor(placed); transport.HasPathPrefix(placed, path) && !slices.Contains(holders, r) {
			holders = append(holders, r)
		}
	}
	return holders
}

// Restart brings the crashed rank back (mds.Server.Restart) with every
// registration whose root it holds, in path order, so the rank serves no
// request without them; the clients keep the grants they hold. It is the
// only way a rank gets its registrations back. A RegisterPolicy or
// Unregister that overlaps the restart cannot leave the monitor and the
// rank disagreeing: until the rank serves, its deliver there fails
// (ErrShutdown) and records nothing, so the list handed here stays the
// monitor's.
func (m *Monitor) Restart(p runtime.Task, rank int) error {
	m.enter(p, "restart")
	defer m.leave(p)
	var regs []mds.AttachMsg
	for _, st := range m.registered() {
		if slices.Contains(m.holders(st.Path), rank) {
			regs = append(regs, mds.AttachMsg{Path: st.Path, Policy: st.Policy})
		}
	}
	return m.cl.Rank(rank).Restart(p, regs)
}

// Place pins the subtree at path to a metadata rank without touching its
// policy — the explicit placement knob (ceph.dir.pin in CephFS terms).
// Onto another rank it is a migration with no load, the same handoff as
// Migrate; onto the current owner it only records the pin, under one
// commit latency and one epoch. Either way a file is refused
// (namespace.ErrNotDir) and the table stays as it was, and so is a
// subtree a concurrent handoff has frozen or moved (namespace.ErrBusy).
func (m *Monitor) Place(p runtime.Task, path string, rank int) error {
	m.enter(p, "place")
	defer m.leave(p)
	if err := m.checkRank("place", path, rank); err != nil {
		return err
	}
	if owner := m.cl.Table().RankFor(path); owner != rank {
		return m.handoff(p, path, owner, rank, false)
	}
	p.Sleep(commitLatency)
	m.epoch++
	if err := m.cl.Pin(p, path, rank); err != nil {
		return err
	}
	m.placed(path)
	return nil
}

// enter moves p into the monitor's domain for the operation op and, with
// the label plane on, charges p's CPU samples to {proc: monitor, op}
// until leave, which undoes both. A rank that serves one of the
// operation's messages gives p its own label back, so the monitor's work
// after that message is charged to p.
func (m *Monitor) enter(p runtime.Task, op string) {
	m.dom.Enter(p)
	if l := obs.ProfLabels(); l != nil && p != nil {
		obs.Switch(l.Op("monitor", op))
	}
}

// leave is enter's inverse.
func (m *Monitor) leave(p runtime.Task) {
	if l := obs.ProfLabels(); l != nil && p != nil {
		obs.Switch(l.Proc(p.Name()))
	}
	m.dom.Leave(p)
}

// record returns path's subtree record, creating an owned one on first
// use.
func (m *Monitor) record(path string) *Subtree {
	path = transport.Clean(path)
	st, ok := m.subtrees[path]
	if !ok {
		st = &Subtree{Path: path}
		m.subtrees[path] = st
	}
	return st
}

// placed stamps path's record owned at the current epoch: the routing
// table has just moved it.
func (m *Monitor) placed(path string) {
	st := m.record(path)
	st.State, st.Epoch = SubtreeOwned, m.epoch
}

// Subtree returns path's record, registered or not, without creating
// one.
func (m *Monitor) Subtree(path string) (*Subtree, bool) {
	st, ok := m.subtrees[transport.Clean(path)]
	return st, ok
}

// Lookup returns path's record if it carries a registered policy.
func (m *Monitor) Lookup(path string) (*Subtree, bool) {
	if st, ok := m.Subtree(path); ok && st.Policy != nil {
		return st, true
	}
	return nil, false
}

// Subtrees lists every subtree record, registered or not, sorted by path.
func (m *Monitor) Subtrees() []*Subtree {
	out := make([]*Subtree, 0, len(m.subtrees))
	for _, st := range m.subtrees {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// registered lists the records that carry a policy, sorted by path.
func (m *Monitor) registered() []*Subtree {
	return slices.DeleteFunc(m.Subtrees(), func(st *Subtree) bool { return st.Policy == nil })
}

// Describe renders the cluster map for operators.
func (m *Monitor) Describe() string {
	var b strings.Builder
	reg := m.registered()
	fmt.Fprintf(&b, "epoch %d, %d rank(s), %d subtree(s)\n", m.epoch, m.cl.Ranks(), len(reg))
	for _, st := range reg {
		comp, _ := st.Policy.Composition()
		fmt.Fprintf(&b, "  %-20s owner=%-10s epoch=%-3d rank=%d inodes=[%d,+%d) %s\n",
			st.Path, st.Policy.Owner, st.Epoch, m.cl.Table().RankFor(st.Path), st.Policy.GrantLo, st.Policy.GrantN, comp)
	}
	for _, path := range m.cl.Table().Paths() {
		if _, ok := m.Lookup(path); !ok {
			fmt.Fprintf(&b, "  %-20s pinned rank=%d\n", path, m.cl.Table().RankFor(path))
		}
	}
	return b.String()
}
