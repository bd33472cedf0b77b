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
	"slices"
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

var consNames = [consMax]string{
	ConsInvisible:      "invisible",
	ConsWeak:           "weak",
	ConsStrong:         "strong",
	ConsSpeculative:    "speculative",
	ConsStrongEventual: "strong-eventual",
}

// AllConsistencies returns every consistency level in enum order.
func AllConsistencies() []Consistency { return levels[Consistency](consMax) }

func (c Consistency) String() string { return levelName(consNames[:], c, "Consistency") }

// ParseConsistency recognizes the five consistency names.
func ParseConsistency(s string) (Consistency, error) {
	return parseLevel[Consistency](consNames[:], "consistency", s)
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
func AllDurabilities() []Durability { return levels[Durability](durMax) }

var durNames = [durMax]string{DurNone: "none", DurLocal: "local", DurGlobal: "global"}

func (d Durability) String() string { return levelName(durNames[:], d, "Durability") }

// ParseDurability recognizes the three durability names.
func ParseDurability(s string) (Durability, error) {
	return parseLevel[Durability](durNames[:], "durability", s)
}

// levels lists the n levels of an enum in order.
func levels[L ~uint8](n L) []L {
	out := make([]L, n)
	for i := range out {
		out[i] = L(i)
	}
	return out
}

func levelName[L ~uint8](names []string, l L, kind string) string {
	if int(l) < len(names) {
		return names[l]
	}
	return fmt.Sprintf("%s(%d)", kind, uint8(l))
}

func parseLevel[L ~uint8](names []string, kind, s string) (L, error) {
	if i := slices.Index(names, s); i >= 0 {
		return L(i), nil
	}
	return 0, fmt.Errorf("%w: %s %q", ErrParse, kind, s)
}

// Mechanism is one of the building blocks of Figure 4 (and the two
// post-paper merges). What each one means is its row in mechs.
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

// record is where a subtree's updates are kept between an operation and
// the job's completion.
type record string

const (
	recNone    record = ""
	recMDS     record = "RPC updates at the MDS" // applied at the metadata server, one RPC each
	recJournal record = "the client journal"     // appended to the client's journal
)

// held is the durability updates have where they are recorded: what an
// RPC applied at the MDS survives a client crash, the client's journal
// survives nothing.
var held = map[record]Durability{recMDS: DurLocal, recJournal: DurNone}

// noCell marks a mechanism that gives the updates no consistency level.
const noCell = consMax

// mechRow is everything one mechanism means. Parsing, printing, Table I,
// the levels a composition implements, the compositions refused as
// senseless and what a client runs at completion are all read from it.
type mechRow struct {
	name    string
	aliases []string
	perOp   bool // acts as each operation runs, not when the job completes
	// records is where a recorder keeps the updates; consumes is the
	// record a mechanism reads.
	records, consumes record
	// cell is the consistency the mechanism gives: a recorder's when
	// nothing merges, the merge's otherwise.
	cell Consistency
	dur  Durability
}

// merges reports whether the row replays the client journal into the
// global namespace at completion — which leaves the journal empty.
func (r *mechRow) merges() bool { return !r.perOp && r.cell != noCell }

var mechs = [mechMax]mechRow{
	MechInvalid:             {cell: noCell},
	MechRPCs:                {name: "rpcs", aliases: []string{"rpc"}, perOp: true, records: recMDS, cell: ConsStrong},
	MechAppendClientJournal: {name: "append_client_journal", aliases: []string{"append"}, perOp: true, records: recJournal, cell: ConsInvisible},
	MechVolatileApply:       {name: "volatile_apply", consumes: recJournal, cell: ConsWeak},
	MechNonvolatileApply:    {name: "nonvolatile_apply", consumes: recJournal, cell: ConsWeak, dur: DurGlobal},
	MechStream:              {name: "stream", perOp: true, consumes: recMDS, cell: noCell, dur: DurGlobal},
	MechLocalPersist:        {name: "local_persist", consumes: recJournal, cell: noCell, dur: DurLocal},
	MechGlobalPersist:       {name: "global_persist", consumes: recJournal, cell: noCell, dur: DurGlobal},
	MechSpeculativeApply:    {name: "speculative_apply", consumes: recJournal, cell: ConsSpeculative},
	MechConvergeApply:       {name: "converge_apply", aliases: []string{"crdt_merge"}, consumes: recJournal, cell: ConsStrongEventual},
}

func (m Mechanism) String() string {
	if m.Valid() {
		return mechs[m].name
	}
	return fmt.Sprintf("Mechanism(%d)", uint8(m))
}

// Valid reports whether m is a known mechanism.
func (m Mechanism) Valid() bool { return m > MechInvalid && m < mechMax }

// Completion says what m does when its composition completes: nothing
// (ok false) for a mechanism that acts per operation; otherwise whether
// it merges the client journal, and the durability it gives.
func (m Mechanism) Completion() (merges bool, dur Durability, ok bool) {
	if !m.Valid() || mechs[m].perOp {
		return false, DurNone, false
	}
	return mechs[m].merges(), mechs[m].dur, true
}

// ParseMechanism recognizes mechanism names and aliases.
func ParseMechanism(s string) (Mechanism, error) {
	for m := MechInvalid + 1; m < mechMax; m++ {
		if mechs[m].name == s || slices.Contains(mechs[m].aliases, s) {
			return m, nil
		}
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
	return slices.ContainsFunc(c, func(st Step) bool { return slices.Contains(st.Parallel, m) })
}

// Errors reported by parsing and validation.
var (
	ErrParse     = errors.New("policy: parse error")
	ErrSenseless = errors.New("policy: senseless composition")
)

// ParseComposition parses the DSL: mechanisms joined by "+" (serial) and
// "||" (parallel), e.g. "append_client_journal+local_persist||volatile_apply".
// An empty composition or step is an unknown (empty) mechanism name.
func ParseComposition(s string) (Composition, error) {
	var comp Composition
	for _, step := range strings.Split(s, "+") {
		var st Step
		for _, name := range strings.Split(step, "||") {
			m, err := ParseMechanism(strings.TrimSpace(name))
			if err != nil {
				return nil, fmt.Errorf("%w in %q", err, s)
			}
			st.Parallel = append(st.Parallel, m)
		}
		comp = append(comp, st)
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

// tableI is Table I, built from the rows: a cell is its recorder (the
// one whose level it is, or the client journal), then the one mechanism
// that gives its durability and is not refused beside that recorder,
// then the merge whose level it is and that gives no durability of its
// own.
var tableI = func() (t [consMax][durMax][]Mechanism) {
	for c := range consMax {
		rec, merge := MechAppendClientJournal, MechInvalid
		for m, r := range mechs {
			switch {
			case r.records != recNone && r.cell == c:
				rec = Mechanism(m)
			case r.merges() && r.cell == c && r.dur == DurNone:
				merge = Mechanism(m)
			}
		}
		// Each candidate durability mechanism, MechInvalid for none.
		for m, r := range mechs {
			ms := slices.DeleteFunc([]Mechanism{rec, Mechanism(m), merge},
				func(m Mechanism) bool { return m == MechInvalid })
			d := durabilityOf(seq(ms...))
			if r.records == recNone && !r.merges() && t[c][d] == nil && ValidateComposition(seq(ms...)) == nil {
				t[c][d] = ms
			}
		}
	}
	return t
}()

// Compile is Table I: it returns the mechanism composition that implements
// consistency c with durability d.
func Compile(c Consistency, d Durability) (Composition, error) {
	if c >= consMax || d >= durMax {
		return nil, fmt.Errorf("%w: (%v, %v)", ErrParse, c, d)
	}
	return seq(tableI[c][d]...), nil
}

// cellOf is Compile's inverse on the consistency axis: the level of the
// mechanism that merges the subtree's updates, or, when none does, of the
// one that records them. A client picks its merge path by it.
func cellOf(comp Composition) Consistency {
	cell := ConsInvisible
	for _, st := range comp {
		for _, m := range st.Parallel {
			switch {
			case !m.Valid():
			case mechs[m].merges():
				return mechs[m].cell
			case mechs[m].records != recNone:
				cell = mechs[m].cell
			}
		}
	}
	return cell
}

// durabilityOf is Compile's inverse on the durability axis: the
// strongest durability any of the composition's mechanisms gives.
func durabilityOf(comp Composition) Durability {
	d := DurNone
	for _, st := range comp {
		for _, m := range st.Parallel {
			if m.Valid() {
				d = max(d, mechs[m].dur)
			}
		}
	}
	return d
}

// ValidateComposition refuses, with ErrSenseless and the reason, a
// composition whose mechanisms do not mean one thing together. Each
// mechanism runs once; exactly one records the updates (RPCs, or the
// client journal — both would record them twice) and at most one merges
// them; what acts per operation is listed before what runs at
// completion; every mechanism reads what the recorder keeps, except that
// Local Persist beside RPCs names the local durability the MDS already
// gives (Table I's strong/local, which against a rank crash is
// strong/none); and nothing reads the client journal once a merge has
// emptied it.
func ValidateComposition(comp Composition) error {
	if len(comp) == 0 {
		return fmt.Errorf("%w: empty", ErrSenseless)
	}
	var at [mechMax]int // 1 + the step a mechanism runs in; 0 when absent
	var rec, merge, done Mechanism
	for i, st := range comp {
		if len(st.Parallel) == 0 {
			return fmt.Errorf("%w: empty step", ErrSenseless)
		}
		for _, m := range st.Parallel {
			if !m.Valid() {
				return fmt.Errorf("%w: invalid mechanism", ErrSenseless)
			}
			r := &mechs[m]
			switch {
			case at[m] != 0:
				return fmt.Errorf("%w: %v runs twice", ErrSenseless, m)
			case r.records != recNone && rec != MechInvalid:
				return fmt.Errorf("%w: %v and %v both record the updates", ErrSenseless, rec, m)
			case r.merges() && merge != MechInvalid:
				return fmt.Errorf("%w: %v and %v both merge the client journal", ErrSenseless, merge, m)
			case r.records != recNone:
				rec = m
			case r.merges():
				merge = m
			}
			if at[m] = i + 1; !r.perOp && done == MechInvalid {
				done = m
			}
		}
	}
	if rec == MechInvalid {
		return fmt.Errorf("%w: nothing records the updates (rpcs or append_client_journal)", ErrSenseless)
	}
	kept, dur := mechs[rec].records, durabilityOf(comp)
	for m, step := range at {
		switch r := &mechs[m]; {
		case step == 0:
		case r.perOp && done != MechInvalid && step >= at[done]:
			return fmt.Errorf("%w: %v acts per operation, so it cannot run beside or after %v, which runs at completion",
				ErrSenseless, Mechanism(m), done)
		case r.consumes == recNone:
		case r.consumes != kept && (r.merges() || r.dur > held[kept]):
			return fmt.Errorf("%w: %v reads %s, but %v records %s",
				ErrSenseless, Mechanism(m), r.consumes, rec, kept)
		case r.consumes != kept && r.dur < dur:
			return fmt.Errorf("%w: %v only names the %v durability %v already gives, and the composition gives %v",
				ErrSenseless, Mechanism(m), r.dur, rec, dur)
		case kept == recJournal && merge != MechInvalid && Mechanism(m) != merge && step >= at[merge]:
			return fmt.Errorf("%w: %v reads the client journal once %v has emptied it",
				ErrSenseless, Mechanism(m), merge)
		}
	}
	return nil
}
