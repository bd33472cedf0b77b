// Package monitor implements the cluster monitor daemon (paper §III-C):
// users present a directory path and a policies configuration; the monitor
// parses it, versions it, distributes it to the metadata servers, and
// returns the subtree's inode grant. In a multi-rank cluster the monitor
// also owns subtree placement: a policy's mds_rank pins the subtree to a
// metadata rank, and the monitor pushes the resulting routing table to
// every subscribed client portal.
package monitor

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cudele/internal/mds"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// ErrUnknownSubtree is returned when unregistering a path that was never
// registered.
var ErrUnknownSubtree = errors.New("monitor: unknown subtree")

// commitLatency approximates the monitor quorum commit plus map
// distribution to the daemons.
const commitLatency = 2 * time.Millisecond

// Entry is one registered subtree in the monitor's map.
type Entry struct {
	Path    string
	Policy  *policy.Policy
	Owner   string
	Epoch   uint64
	GrantLo namespace.Ino
	GrantN  uint64
	Rank    int
}

// Monitor manages cluster state changes. Its state, together with the
// metadata cluster's authoritative table and subtree registry, belongs
// to the cluster's control-plane lock domain, which every task-taking
// method enters.
type Monitor struct {
	eng      runtime.Runtime
	dom      runtime.Domain
	cl       *mds.Cluster
	epoch    uint64
	migSeq   uint64 // last assigned migration sequence (export records)
	subtrees map[string]*Entry
	subs     map[string]*transport.Table
}

// New creates a monitor governing a metadata cluster.
func New(eng runtime.Runtime, cl *mds.Cluster) *Monitor {
	return &Monitor{
		eng:      eng,
		dom:      cl.Domain(),
		cl:       cl,
		subtrees: make(map[string]*Entry),
		subs:     make(map[string]*transport.Table),
	}
}

// Epoch returns the current cluster-map epoch, bumped on every change.
func (m *Monitor) Epoch() uint64 { return m.epoch }

// Cluster returns the metadata cluster the monitor governs.
func (m *Monitor) Cluster() *mds.Cluster { return m.cl }

// Subscribe registers a routing-table replica (normally a client portal's)
// to be refreshed on every cluster-map change, and syncs it immediately.
func (m *Monitor) Subscribe(id string, t *transport.Table) {
	m.subs[id] = t
	t.CopyFrom(m.cl.Table())
}

// Unsubscribe drops a replica from the refresh list.
func (m *Monitor) Unsubscribe(id string) { delete(m.subs, id) }

// publish stamps the authoritative table with the current epoch and
// refreshes every subscribed replica.
func (m *Monitor) publish() {
	t := m.cl.Table()
	t.SetEpoch(m.epoch)
	for _, sub := range m.subs {
		sub.CopyFrom(t)
	}
}

// Register parses policiesText (the policies.yml of §III-C), stamps it
// with a new epoch, distributes it, and reserves the subtree's inode
// grant. Registering the same path again replaces its policy.
func (m *Monitor) Register(p runtime.Task, path, policiesText, owner string) (*Entry, error) {
	pol, err := policy.ParseFile(policiesText)
	if err != nil {
		return nil, err
	}
	return m.RegisterPolicy(p, path, pol, owner)
}

// RegisterPolicy is Register with an already-parsed policy. One
// registration is one cluster-map change: the epoch is bumped exactly
// once, covering the policy distribution and any subtree placement it
// implies, and the new map is pushed to every subscriber.
func (m *Monitor) RegisterPolicy(p runtime.Task, path string, pol *policy.Policy, owner string) (*Entry, error) {
	m.dom.Enter(p)
	defer m.dom.Leave(p)
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	target := m.cl.Table().RankFor(path)
	if pol.Rank != 0 {
		if pol.Rank >= m.cl.Ranks() {
			return nil, fmt.Errorf("monitor: mds_rank %d out of range: cluster has %d rank(s)",
				pol.Rank, m.cl.Ranks())
		}
		target = pol.Rank
	}
	p.Sleep(commitLatency)
	m.epoch++
	pol.Version = m.epoch

	oldRank := m.cl.Table().RankFor(path)
	if _, had := m.subtrees[path]; had && target != oldRank {
		// The subtree moves: clear its registration on the old owner
		// before the export, so a single rank never holds a policy for
		// a subtree it no longer serves.
		if err := m.cl.Rank(oldRank).Recouple(p, path); err != nil {
			return nil, err
		}
	}
	if target != oldRank {
		if err := m.cl.Place(p, path, target); err != nil {
			return nil, err
		}
	}
	r := m.cl.Endpoint().Post(p, &mds.DecoupleMsg{Path: path, Policy: pol, Client: owner}).(*mds.DecoupleReply)
	if r.Err != nil {
		return nil, r.Err
	}
	e := &Entry{
		Path: path, Policy: pol, Owner: owner,
		Epoch: m.epoch, GrantLo: r.Lo, GrantN: r.N, Rank: target,
	}
	m.subtrees[path] = e
	m.publish()
	return e, nil
}

// Unregister removes the subtree's policy and returns it to the global
// namespace's semantics. Placement is left alone: pinning a subtree to a
// rank is orthogonal to its consistency/durability policy.
func (m *Monitor) Unregister(p runtime.Task, path string) error {
	m.dom.Enter(p)
	defer m.dom.Leave(p)
	if _, ok := m.subtrees[path]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSubtree, path)
	}
	p.Sleep(commitLatency)
	m.epoch++
	if err := m.cl.Endpoint().Post(p, &mds.RecoupleMsg{Path: path}).(*mds.RecoupleReply).Err; err != nil {
		return err
	}
	delete(m.subtrees, path)
	m.publish()
	return nil
}

// Place pins the subtree at path to a metadata rank without touching its
// policy — the explicit placement knob (ceph.dir.pin in CephFS terms).
func (m *Monitor) Place(p runtime.Task, path string, rank int) error {
	m.dom.Enter(p)
	defer m.dom.Leave(p)
	p.Sleep(commitLatency)
	m.epoch++
	if err := m.cl.Place(p, path, rank); err != nil {
		return err
	}
	if e, ok := m.subtrees[path]; ok {
		e.Rank = rank
	}
	m.publish()
	return nil
}

// Lookup returns the registered entry for path.
func (m *Monitor) Lookup(path string) (*Entry, bool) {
	e, ok := m.subtrees[path]
	return e, ok
}

// Subtrees lists registered entries sorted by path.
func (m *Monitor) Subtrees() []*Entry {
	out := make([]*Entry, 0, len(m.subtrees))
	for _, e := range m.subtrees {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Describe renders the cluster map for operators.
func (m *Monitor) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d, %d rank(s), %d subtree(s)\n",
		m.epoch, m.cl.Ranks(), len(m.subtrees))
	for _, e := range m.Subtrees() {
		comp, _ := e.Policy.Composition()
		fmt.Fprintf(&b, "  %-20s owner=%-10s epoch=%-3d rank=%d inodes=[%d,+%d) %s\n",
			e.Path, e.Owner, e.Epoch, e.Rank, e.GrantLo, e.GrantN, comp)
	}
	for _, path := range m.cl.Table().Paths() {
		if _, ok := m.subtrees[path]; !ok {
			fmt.Fprintf(&b, "  %-20s pinned rank=%d\n", path, m.cl.Table().RankFor(path))
		}
	}
	return b.String()
}
