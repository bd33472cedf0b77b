package policy

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Interfere says how the MDS handles a request from another client aimed
// at a decoupled subtree (paper §III-C).
type Interfere uint8

const (
	// InterfereAllow lets interfering writes through; the decoupled
	// namespace wins conflicts at merge time.
	InterfereAllow Interfere = iota
	// InterfereBlock rejects interfering requests with "device busy".
	InterfereBlock
)

var interfereNames = [...]string{InterfereAllow: "allow", InterfereBlock: "block"}

func (i Interfere) String() string { return levelName(interfereNames[:], i, "Interfere") }

// ParseInterfere recognizes "allow" and "block".
func ParseInterfere(s string) (Interfere, error) {
	return parseLevel[Interfere](interfereNames[:], "interfere", s)
}

// DefaultAllocatedInodes is the default inode grant for a decoupled
// subtree (paper §III-C).
const DefaultAllocatedInodes = 100

// Policy is one subtree's consistency/durability configuration. The zero
// value plus Normalize is the paper's default policies file: RPCs
// consistency, Stream durability, 100 inodes, interfere allow — i.e. the
// subtree behaves like stock CephFS.
type Policy struct {
	// Consistency and Durability are the semantic levels. They are used
	// to compile compositions when the explicit fields below are empty,
	// and to position the subtree in Table I.
	Consistency Consistency
	Durability  Durability

	// ConsistencyComp and DurabilityComp, when non-nil, override the
	// compiled compositions (the policies-file values may be raw DSL).
	// ParseFile then sets Consistency and Durability to the levels the
	// composition implements: a client merges by the one, and the
	// other is what the subtree's updates survive.
	ConsistencyComp Composition
	DurabilityComp  Composition

	// AllocatedInodes is the subtree's inode grant.
	AllocatedInodes int

	// Interfere is the subtree's interference policy.
	Interfere Interfere

	// Version, Owner, GrantLo and GrantN are stamped by the monitor on
	// its own copy of the policy when it registers a subtree: the
	// registration's epoch, the client that decoupled the subtree, and
	// the inode grant [GrantLo, GrantLo+GrantN) it issued. That copy is
	// the registration everywhere: a rank keeps it in the subtree root's
	// large inode, a handoff carries it, and the client allocates from
	// it.
	Version uint64
	Owner   string
	GrantLo uint64
	GrantN  uint64
}

// Default returns the paper's default policy: strong consistency over
// RPCs, global durability over Stream, 100 inodes, interfere allow.
func Default() *Policy {
	return &Policy{
		Consistency:     ConsStrong,
		Durability:      DurGlobal,
		AllocatedInodes: DefaultAllocatedInodes,
		Interfere:       InterfereAllow,
	}
}

// Composition returns the full mechanism composition for the policy: the
// explicit compositions when set, otherwise the Table I compilation of the
// semantic levels.
func (p *Policy) Composition() (Composition, error) {
	if p.ConsistencyComp == nil && p.DurabilityComp == nil {
		return Compile(p.Consistency, p.Durability)
	}
	comp := slices.Concat(p.ConsistencyComp, p.DurabilityComp)
	if err := ValidateComposition(comp); err != nil {
		return nil, err
	}
	return comp, nil
}

// Streams reports whether the policy's composition contains Stream: the
// rank journals the RPC updates in the subtree the policy governs. It
// allocates nothing, since a rank asks it for every mutation.
func (p *Policy) Streams() bool {
	if p.ConsistencyComp != nil || p.DurabilityComp != nil {
		return p.ConsistencyComp.Contains(MechStream) || p.DurabilityComp.Contains(MechStream)
	}
	return p.Consistency < consMax && p.Durability < durMax &&
		slices.Contains(tableI[p.Consistency][p.Durability], MechStream)
}

// Validate checks the policy for consistency. A zero inode grant is
// allowed and means the cluster's default grant (AllocatedInodesDefault);
// a nested subtree never takes its parent's.
func (p *Policy) Validate() error {
	if p.AllocatedInodes < 0 {
		return fmt.Errorf("%w: allocated_inodes %d", ErrParse, p.AllocatedInodes)
	}
	_, err := p.Composition()
	return err
}

// String renders the policy in policies-file form.
func (p *Policy) String() string {
	var b strings.Builder
	if p.ConsistencyComp != nil {
		fmt.Fprintf(&b, "consistency: %s\n", p.ConsistencyComp)
	} else {
		fmt.Fprintf(&b, "consistency: %s\n", p.Consistency)
	}
	if p.DurabilityComp != nil {
		fmt.Fprintf(&b, "durability: %s\n", p.DurabilityComp)
	} else {
		fmt.Fprintf(&b, "durability: %s\n", p.Durability)
	}
	fmt.Fprintf(&b, "allocated_inodes: %d\n", p.AllocatedInodes)
	fmt.Fprintf(&b, "interfere: %s\n", p.Interfere)
	return b.String()
}

// ParseFile parses a policies file (the "policies.yml" of §III-C): one
// "key: value" pair per line, "#" comments, blank lines ignored. Keys:
//
//	consistency:      invisible | weak | strong | <mechanism DSL>
//	durability:       none | local | global | <mechanism DSL>
//	allocated_inodes: positive integer
//	interfere:        allow | block
//
// Missing keys take the paper's defaults, so an empty file yields a
// subtree that behaves like the existing CephFS implementation.
func ParseFile(text string) (*Policy, error) {
	p := Default()
	var consLevel, durLevel bool // whether the key's value is a level name
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("%w: line %d: missing ':' in %q", ErrParse, lineNo+1, raw)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		var err error
		switch key {
		case "consistency":
			if consLevel, err = levelOrComposition(value, ParseConsistency, &p.Consistency, &p.ConsistencyComp); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
			}
		case "durability":
			if durLevel, err = levelOrComposition(value, ParseDurability, &p.Durability, &p.DurabilityComp); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
			}
		case "allocated_inodes":
			n, err := strconv.Atoi(value)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%w: line %d: allocated_inodes %q", ErrParse, lineNo+1, value)
			}
			p.AllocatedInodes = n
		case "interfere":
			i, err := ParseInterfere(value)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
			}
			p.Interfere = i
		default:
			return nil, fmt.Errorf("%w: line %d: unknown key %q", ErrParse, lineNo+1, key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// A compiled cell's levels are its own (TestValidateEveryOrderedSequence).
	// Beside a raw composition on the other key a level name is not
	// composed (Composition), so one the composition does not implement
	// would be dropped.
	comp, _ := p.Composition()
	c, d := cellOf(comp), durabilityOf(comp)
	switch {
	case consLevel && p.Consistency != c:
		return nil, fmt.Errorf("%w: consistency %s would be dropped beside the raw durability composition %s, which implements %s; write it as mechanisms",
			ErrParse, p.Consistency, p.DurabilityComp, c)
	case durLevel && p.Durability != d:
		return nil, fmt.Errorf("%w: durability %s would be dropped beside the raw consistency composition %s, which implements %s; write it as mechanisms",
			ErrParse, p.Durability, p.ConsistencyComp, d)
	}
	p.Consistency, p.Durability = c, d
	return p, nil
}

// levelOrComposition sets *level from a level name, clearing *comp, or
// else *comp from the mechanism DSL, and reports which it was.
func levelOrComposition[L any](value string, parse func(string) (L, error), level *L, comp *Composition) (bool, error) {
	if l, err := parse(value); err == nil {
		*level, *comp = l, nil
		return true, nil
	}
	c, err := ParseComposition(value)
	if err == nil {
		*comp = c
	}
	return false, err
}
