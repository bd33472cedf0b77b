// Package policy models Cudele's programmable consistency/durability
// policies (paper §III).
//
// A policy names a consistency level (invisible, weak, strong, and the
// post-paper speculative and strong-eventual extensions) and a
// durability level (none, local, global), or spells out an explicit
// composition of the low-level mechanisms using the paper's small DSL:
// "+" sequences mechanisms and "||" runs them in parallel. The Compile
// function is Table I: it maps each (consistency, durability) cell to its
// mechanism composition. Policies also carry the subtree's inode grant and
// its interfere policy (allow or block).
package policy

import (
	"errors"
	"fmt"
	"strings"
)

// Consistency is the visibility level of a subtree's metadata updates
// (paper §III-B).
type Consistency uint8

const (
	// ConsInvisible: the system does not merge updates into the global
	// namespace; middleware or the application manages consistency.
	ConsInvisible Consistency = iota
	// ConsWeak: updates merge at some future time (job end, threshold).
	ConsWeak
	// ConsStrong: updates are seen immediately by all clients.
	ConsStrong
	// ConsSpeculative: clients apply updates optimistically against a
	// predicted global view; the merge validates every prediction and
	// forces rollback of the ops that conflicted (plus their dependent
	// suffix, which the validator rejects through missing parents).
	ConsSpeculative
	// ConsStrongEventual: decoupled clients merge concurrently with
	// deterministic commutative conflict resolution — a (timestamp,
	// clientID) tie-break — so any merge order converges to the same
	// namespace.
	ConsStrongEventual
	consMax
)

// NumConsistencies is the number of consistency levels the compiler
// knows; exhaustiveness tests iterate [0, NumConsistencies).
const NumConsistencies = int(consMax)

var consNames = map[Consistency]string{
	ConsInvisible:      "invisible",
	ConsWeak:           "weak",
	ConsStrong:         "strong",
	ConsSpeculative:    "speculative",
	ConsStrongEventual: "strong-eventual",
}

// AllConsistencies returns every consistency level in enum order.
func AllConsistencies() []Consistency {
	out := make([]Consistency, 0, NumConsistencies)
	for c := Consistency(0); c < consMax; c++ {
		out = append(out, c)
	}
	return out
}

func (c Consistency) String() string {
	if s, ok := consNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Consistency(%d)", uint8(c))
}

// ParseConsistency recognizes the five consistency names.
func ParseConsistency(s string) (Consistency, error) {
	for c, name := range consNames {
		if name == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("%w: consistency %q", ErrParse, s)
}

// Durability is the failure-survival level of a subtree's updates.
type Durability uint8

const (
	// DurNone: updates are volatile and lost on any failure.
	DurNone Durability = iota
	// DurLocal: updates survive if the client node recovers.
	DurLocal
	// DurGlobal: updates are always recoverable (safe in the object
	// store).
	DurGlobal
	durMax
)

// NumDurabilities is the number of durability levels the compiler knows.
const NumDurabilities = int(durMax)

// AllDurabilities returns every durability level in enum order.
func AllDurabilities() []Durability {
	out := make([]Durability, 0, NumDurabilities)
	for d := Durability(0); d < durMax; d++ {
		out = append(out, d)
	}
	return out
}

var durNames = map[Durability]string{
	DurNone:   "none",
	DurLocal:  "local",
	DurGlobal: "global",
}

func (d Durability) String() string {
	if s, ok := durNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Durability(%d)", uint8(d))
}

// ParseDurability recognizes the three durability names.
func ParseDurability(s string) (Durability, error) {
	for d, name := range durNames {
		if name == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("%w: durability %q", ErrParse, s)
}

// Mechanism is one of the six building blocks of Figure 4.
type Mechanism uint8

const (
	MechInvalid Mechanism = iota
	// MechRPCs sends an RPC per metadata operation (strong consistency).
	MechRPCs
	// MechAppendClientJournal appends updates to the client's in-memory
	// journal without consistency checks.
	MechAppendClientJournal
	// MechVolatileApply replays the client journal directly onto the
	// MDS's in-memory metadata store.
	MechVolatileApply
	// MechNonvolatileApply replays the client journal onto the metadata
	// store in the object store (via read-modify-write of objects).
	MechNonvolatileApply
	// MechStream is the MDS journaling metadata updates into the object
	// store (the CephFS default for global durability).
	MechStream
	// MechLocalPersist writes the serialized client journal to local
	// disk.
	MechLocalPersist
	// MechGlobalPersist pushes the serialized client journal into the
	// object store.
	MechGlobalPersist
	// MechSpeculativeApply replays the client journal onto the MDS's
	// in-memory store with per-event validation: events whose prediction
	// fails (name taken, parent rolled back) are rejected and the client
	// rolls them back from the pre-images it keeps beside the journal.
	MechSpeculativeApply
	// MechConvergeApply replays the client journal through the MDS's
	// commutative (CRDT-style) merger: conflicting updates are resolved
	// by a deterministic (timestamp, clientID) tie-break, so concurrent
	// merges converge in any order.
	MechConvergeApply
	mechMax
)

var mechNames = map[Mechanism]string{
	MechRPCs:                "rpcs",
	MechAppendClientJournal: "append_client_journal",
	MechVolatileApply:       "volatile_apply",
	MechNonvolatileApply:    "nonvolatile_apply",
	MechStream:              "stream",
	MechLocalPersist:        "local_persist",
	MechGlobalPersist:       "global_persist",
	MechSpeculativeApply:    "speculative_apply",
	MechConvergeApply:       "converge_apply",
}

var mechAliases = map[string]Mechanism{
	"append":     MechAppendClientJournal,
	"rpc":        MechRPCs,
	"crdt_merge": MechConvergeApply,
}

func (m Mechanism) String() string {
	if s, ok := mechNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mechanism(%d)", uint8(m))
}

// Valid reports whether m is a known mechanism.
func (m Mechanism) Valid() bool { return m > MechInvalid && m < mechMax }

// ParseMechanism recognizes mechanism names and aliases.
func ParseMechanism(s string) (Mechanism, error) {
	for m, name := range mechNames {
		if name == s {
			return m, nil
		}
	}
	if m, ok := mechAliases[s]; ok {
		return m, nil
	}
	return MechInvalid, fmt.Errorf("%w: mechanism %q", ErrParse, s)
}

// Step is one serialized stage of a composition; the mechanisms inside a
// step run in parallel ("||").
type Step struct {
	Parallel []Mechanism
}

// Composition is an ordered list of steps, run one after another ("+").
type Composition []Step

// String renders the composition in DSL form.
func (c Composition) String() string {
	steps := make([]string, len(c))
	for i, st := range c {
		parts := make([]string, len(st.Parallel))
		for j, m := range st.Parallel {
			parts[j] = m.String()
		}
		steps[i] = strings.Join(parts, "||")
	}
	return strings.Join(steps, "+")
}

// Contains reports whether m appears anywhere in the composition.
func (c Composition) Contains(m Mechanism) bool {
	for _, st := range c {
		for _, x := range st.Parallel {
			if x == m {
				return true
			}
		}
	}
	return false
}

// Errors reported by parsing and validation.
var (
	ErrParse     = errors.New("policy: parse error")
	ErrSenseless = errors.New("policy: senseless composition")
)

// ParseComposition parses the DSL: mechanisms joined by "+" (serial) and
// "||" (parallel), e.g. "append_client_journal+local_persist||volatile_apply".
func ParseComposition(s string) (Composition, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("%w: empty composition", ErrParse)
	}
	var comp Composition
	for _, stepStr := range strings.Split(s, "+") {
		stepStr = strings.TrimSpace(stepStr)
		if stepStr == "" {
			return nil, fmt.Errorf("%w: empty step in %q", ErrParse, s)
		}
		var step Step
		for _, mechStr := range strings.Split(stepStr, "||") {
			mechStr = strings.TrimSpace(mechStr)
			m, err := ParseMechanism(mechStr)
			if err != nil {
				return nil, err
			}
			step.Parallel = append(step.Parallel, m)
		}
		comp = append(comp, step)
	}
	return comp, nil
}

// seq builds a purely serial composition.
func seq(ms ...Mechanism) Composition {
	c := make(Composition, len(ms))
	for i, m := range ms {
		c[i] = Step{Parallel: []Mechanism{m}}
	}
	return c
}

// Compile is Table I: it returns the mechanism composition that implements
// consistency c with durability d.
func Compile(c Consistency, d Durability) (Composition, error) {
	switch {
	case c == ConsStrong && d == DurNone:
		return seq(MechRPCs), nil
	case c == ConsStrong && d == DurLocal:
		return seq(MechRPCs, MechLocalPersist), nil
	case c == ConsStrong && d == DurGlobal:
		return seq(MechRPCs, MechStream), nil
	case c == ConsInvisible && d == DurNone:
		return seq(MechAppendClientJournal), nil
	case c == ConsInvisible && d == DurLocal:
		return seq(MechAppendClientJournal, MechLocalPersist), nil
	case c == ConsInvisible && d == DurGlobal:
		return seq(MechAppendClientJournal, MechGlobalPersist), nil
	case c == ConsWeak && d == DurNone:
		return seq(MechAppendClientJournal, MechVolatileApply), nil
	case c == ConsWeak && d == DurLocal:
		return seq(MechAppendClientJournal, MechLocalPersist, MechVolatileApply), nil
	case c == ConsWeak && d == DurGlobal:
		return seq(MechAppendClientJournal, MechGlobalPersist, MechVolatileApply), nil
	case c == ConsSpeculative && d == DurNone:
		return seq(MechAppendClientJournal, MechSpeculativeApply), nil
	case c == ConsSpeculative && d == DurLocal:
		return seq(MechAppendClientJournal, MechLocalPersist, MechSpeculativeApply), nil
	case c == ConsSpeculative && d == DurGlobal:
		return seq(MechAppendClientJournal, MechGlobalPersist, MechSpeculativeApply), nil
	case c == ConsStrongEventual && d == DurNone:
		return seq(MechAppendClientJournal, MechConvergeApply), nil
	case c == ConsStrongEventual && d == DurLocal:
		return seq(MechAppendClientJournal, MechLocalPersist, MechConvergeApply), nil
	case c == ConsStrongEventual && d == DurGlobal:
		return seq(MechAppendClientJournal, MechGlobalPersist, MechConvergeApply), nil
	}
	return nil, fmt.Errorf("%w: (%v, %v)", ErrParse, c, d)
}

// cellOf is Compile's inverse on the consistency axis: the level a
// composition implements, read off the mechanism that merges (or does
// not merge) the subtree's updates. A client picks its merge path by it.
func cellOf(c Composition) Consistency {
	switch {
	case c.Contains(MechSpeculativeApply):
		return ConsSpeculative
	case c.Contains(MechConvergeApply):
		return ConsStrongEventual
	case c.Contains(MechVolatileApply) || c.Contains(MechNonvolatileApply):
		return ConsWeak
	case c.Contains(MechRPCs):
		return ConsStrong
	}
	return ConsInvisible
}

// ValidateComposition rejects compositions the paper calls out as making
// no sense: RPCs combined with the client journal (both record the same
// updates), and Stream combined with Local Persist (global durability
// subsumes local).
func ValidateComposition(c Composition) error {
	if len(c) == 0 {
		return fmt.Errorf("%w: empty", ErrSenseless)
	}
	for _, st := range c {
		if len(st.Parallel) == 0 {
			return fmt.Errorf("%w: empty step", ErrSenseless)
		}
		for _, m := range st.Parallel {
			if !m.Valid() {
				return fmt.Errorf("%w: invalid mechanism", ErrSenseless)
			}
		}
	}
	if c.Contains(MechRPCs) && c.Contains(MechAppendClientJournal) {
		return fmt.Errorf("%w: append_client_journal with rpcs records updates twice", ErrSenseless)
	}
	if c.Contains(MechStream) && c.Contains(MechLocalPersist) {
		return fmt.Errorf("%w: stream already provides stronger durability than local_persist", ErrSenseless)
	}
	applies := 0
	for _, m := range []Mechanism{MechVolatileApply, MechNonvolatileApply, MechSpeculativeApply, MechConvergeApply} {
		if c.Contains(m) {
			applies++
		}
	}
	if applies > 1 {
		return fmt.Errorf("%w: more than one apply mechanism replays the same updates twice", ErrSenseless)
	}
	if c.Contains(MechRPCs) && (c.Contains(MechSpeculativeApply) || c.Contains(MechConvergeApply)) {
		return fmt.Errorf("%w: rpcs leave no client journal for an apply mechanism to merge", ErrSenseless)
	}
	return nil
}
