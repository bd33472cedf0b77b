package policy

import (
	"errors"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseConsistencyDurability(t *testing.T) {
	for _, name := range []string{"invisible", "weak", "strong", "speculative", "strong-eventual"} {
		c, err := ParseConsistency(name)
		if err != nil || c.String() != name {
			t.Errorf("consistency %q: %v, %v", name, c, err)
		}
	}
	for _, name := range []string{"none", "local", "global"} {
		d, err := ParseDurability(name)
		if err != nil || d.String() != name {
			t.Errorf("durability %q: %v, %v", name, d, err)
		}
	}
	if _, err := ParseConsistency("bogus"); !errors.Is(err, ErrParse) {
		t.Errorf("bogus consistency err = %v", err)
	}
	if _, err := ParseDurability("bogus"); !errors.Is(err, ErrParse) {
		t.Errorf("bogus durability err = %v", err)
	}
}

func TestParseMechanism(t *testing.T) {
	for m, name := range map[Mechanism]string{
		MechRPCs:                "rpcs",
		MechAppendClientJournal: "append_client_journal",
		MechVolatileApply:       "volatile_apply",
		MechNonvolatileApply:    "nonvolatile_apply",
		MechStream:              "stream",
		MechLocalPersist:        "local_persist",
		MechGlobalPersist:       "global_persist",
	} {
		got, err := ParseMechanism(name)
		if err != nil || got != m {
			t.Errorf("mechanism %q = %v, %v", name, got, err)
		}
	}
	// Aliases.
	if m, _ := ParseMechanism("append"); m != MechAppendClientJournal {
		t.Error("alias append failed")
	}
	if m, _ := ParseMechanism("rpc"); m != MechRPCs {
		t.Error("alias rpc failed")
	}
	if _, err := ParseMechanism("nope"); !errors.Is(err, ErrParse) {
		t.Errorf("bad mechanism err = %v", err)
	}
}

func TestParseComposition(t *testing.T) {
	comp, err := ParseComposition("append_client_journal+local_persist||volatile_apply")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(comp) != 2 {
		t.Fatalf("steps = %d, want 2", len(comp))
	}
	if len(comp[0].Parallel) != 1 || comp[0].Parallel[0] != MechAppendClientJournal {
		t.Fatalf("step 0 = %v", comp[0])
	}
	if len(comp[1].Parallel) != 2 ||
		comp[1].Parallel[0] != MechLocalPersist ||
		comp[1].Parallel[1] != MechVolatileApply {
		t.Fatalf("step 1 = %v", comp[1])
	}
	// Round trip through String.
	again, err := ParseComposition(comp.String())
	if err != nil || again.String() != comp.String() {
		t.Fatalf("string round trip: %q vs %q (%v)", again, comp, err)
	}
}

func TestParseCompositionErrors(t *testing.T) {
	for _, s := range []string{"", "+", "append+", "x||y", "append_client_journal++stream"} {
		if _, err := ParseComposition(s); err == nil {
			t.Errorf("ParseComposition(%q) accepted", s)
		}
	}
}

func TestCompileTableI(t *testing.T) {
	// Every cell of Table I.
	want := map[[2]int]string{
		{int(ConsInvisible), int(DurNone)}:   "append_client_journal",
		{int(ConsWeak), int(DurNone)}:        "append_client_journal+volatile_apply",
		{int(ConsStrong), int(DurNone)}:      "rpcs",
		{int(ConsInvisible), int(DurLocal)}:  "append_client_journal+local_persist",
		{int(ConsWeak), int(DurLocal)}:       "append_client_journal+local_persist+volatile_apply",
		{int(ConsStrong), int(DurLocal)}:     "rpcs+local_persist",
		{int(ConsInvisible), int(DurGlobal)}: "append_client_journal+global_persist",
		{int(ConsWeak), int(DurGlobal)}:      "append_client_journal+global_persist+volatile_apply",
		{int(ConsStrong), int(DurGlobal)}:    "rpcs+stream",
	}
	for key, dsl := range want {
		comp, err := Compile(Consistency(key[0]), Durability(key[1]))
		if err != nil {
			t.Errorf("compile (%d,%d): %v", key[0], key[1], err)
			continue
		}
		if comp.String() != dsl {
			t.Errorf("cell (%v,%v) = %q, want %q",
				Consistency(key[0]), Durability(key[1]), comp, dsl)
		}
		if err := ValidateComposition(comp); err != nil {
			t.Errorf("cell (%v,%v) invalid: %v",
				Consistency(key[0]), Durability(key[1]), err)
		}
	}
}

func TestValidateCompositionRejectsSenseless(t *testing.T) {
	bad := []string{
		"append_client_journal+rpcs",                          // same updates twice (paper §III-B)
		"stream+local_persist",                                // global subsumes local (paper §III-B)
		"volatile_apply+nonvolatile_apply",                    // double apply
		"rpcs||append_client_journal",                         // parallel variant
		"stream",                                              // nothing records the RPCs it journals
		"rpcs+volatile_apply",                                 // rpcs leave no client journal to merge
		"rpcs+global_persist",                                 // ...nor one to persist
		"append_client_journal+volatile_apply+local_persist",  // the merge emptied the journal
		"append_client_journal+local_persist||volatile_apply", // ...or may have, beside it
		"local_persist+append_client_journal",                 // per-op after completion
		"rpcs+stream+local_persist",                           // local names less than stream gives
	}
	for _, dsl := range bad {
		comp, err := ParseComposition(dsl)
		if err != nil {
			t.Fatalf("parse %q: %v", dsl, err)
		}
		if err := ValidateComposition(comp); !errors.Is(err, ErrSenseless) {
			t.Errorf("ValidateComposition(%q) = %v, want ErrSenseless", dsl, err)
		}
	}
	if err := ValidateComposition(nil); !errors.Is(err, ErrSenseless) {
		t.Errorf("empty composition err = %v", err)
	}
}

func TestPolicyDefault(t *testing.T) {
	p := Default()
	comp, err := p.Composition()
	if err != nil {
		t.Fatalf("composition: %v", err)
	}
	if comp.String() != "rpcs+stream" {
		t.Fatalf("default composition = %q, want rpcs+stream", comp)
	}
	if p.AllocatedInodes != 100 || p.Interfere != InterfereAllow {
		t.Fatalf("defaults = %+v", p)
	}
	if comp.Contains(MechAppendClientJournal) {
		t.Fatal("default policy should not be decoupled")
	}
}

func TestPolicyDecoupled(t *testing.T) {
	p := &Policy{Consistency: ConsInvisible, Durability: DurLocal, AllocatedInodes: 10}
	if comp, err := p.Composition(); err != nil || !comp.Contains(MechAppendClientJournal) {
		t.Fatalf("invisible/local composes %v, %v; want a client journal: decoupled", comp, err)
	}
}

func TestParseFileEmpty(t *testing.T) {
	p, err := ParseFile("")
	if err != nil {
		t.Fatalf("empty file: %v", err)
	}
	comp, _ := p.Composition()
	if comp.String() != "rpcs+stream" {
		t.Fatalf("empty policies file composition = %q", comp)
	}
	if p.AllocatedInodes != 100 {
		t.Fatalf("empty policies file inodes = %d", p.AllocatedInodes)
	}
}

func TestParseFileFull(t *testing.T) {
	text := `
# BatchFS-style subtree
consistency: weak
durability: local
allocated_inodes: 200000
interfere: block
`
	p, err := ParseFile(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if p.Consistency != ConsWeak || p.Durability != DurLocal {
		t.Fatalf("levels = %v/%v", p.Consistency, p.Durability)
	}
	if p.AllocatedInodes != 200000 || p.Interfere != InterfereBlock {
		t.Fatalf("policy = %+v", p)
	}
	comp, _ := p.Composition()
	if comp.String() != "append_client_journal+local_persist+volatile_apply" {
		t.Fatalf("composition = %q", comp)
	}
}

func TestParseFileExplicitDSL(t *testing.T) {
	p, err := ParseFile("consistency: append_client_journal\ndurability: global_persist||local_persist\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	comp, err := p.Composition()
	if err != nil {
		t.Fatalf("composition: %v", err)
	}
	if comp.String() != "append_client_journal+global_persist||local_persist" {
		t.Fatalf("composition = %q", comp)
	}
	if p.Consistency != ConsInvisible {
		t.Fatalf("consistency = %v, want the invisible cell the composition implements", p.Consistency)
	}
}

// TestCellOfInvertsCompile: the consistency level ParseFile records for a
// composition is the one Compile built it from, in every Table I cell and
// the two beyond it; Nonvolatile Apply merges like Volatile Apply.
func TestCellOfInvertsCompile(t *testing.T) {
	for _, c := range AllConsistencies() {
		for _, d := range AllDurabilities() {
			comp, _ := Compile(c, d)
			if got := cellOf(comp); got != c {
				t.Errorf("cellOf(%q) = %v, want %v", comp, got, c)
			}
		}
	}
	if got := cellOf(seq(MechAppendClientJournal, MechNonvolatileApply)); got != ConsWeak {
		t.Errorf("cellOf(nonvolatile apply) = %v, want weak", got)
	}
}

func TestParseFileErrors(t *testing.T) {
	cases := []string{
		"consistency weak",       // missing colon
		"consistency: sorta",     // unknown level and not DSL
		"allocated_inodes: -5",   // non-positive
		"allocated_inodes: many", // non-integer
		"interfere: maybe",       // unknown
		"favourite_colour: blue", // unknown key
		"consistency: rpcs\ndurability: local_persist||stream\n", // senseless combo
	}
	for _, text := range cases {
		if _, err := ParseFile(text); err == nil {
			t.Errorf("ParseFile(%q) accepted", text)
		}
	}
	// Placement is not a policy: a subtree moves by Monitor.Place or
	// Migrate, so the file has no rank key.
	if _, err := ParseFile("mds_rank: 1\n"); err == nil || !strings.Contains(err.Error(), `unknown key "mds_rank"`) {
		t.Errorf(`ParseFile("mds_rank: 1") = %v, want an unknown-key error`, err)
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	p := &Policy{Consistency: ConsWeak, Durability: DurGlobal, AllocatedInodes: 5000, Interfere: InterfereBlock}
	p2, err := ParseFile(p.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if p2.Consistency != p.Consistency || p2.Durability != p.Durability ||
		p2.AllocatedInodes != p.AllocatedInodes || p2.Interfere != p.Interfere {
		t.Fatalf("round trip: %+v vs %+v", p2, p)
	}
}

func TestValidate(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	p.AllocatedInodes = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative inode grant accepted")
	}
	p.AllocatedInodes = 0 // zero means the cluster's default grant
	if err := p.Validate(); err != nil {
		t.Fatalf("zero inode grant rejected: %v", err)
	}
}

// TestCompileBeyondTableI pins the six new composition rows for the
// post-paper speculative and strong-eventual cells.
func TestCompileBeyondTableI(t *testing.T) {
	want := map[[2]int]string{
		{int(ConsSpeculative), int(DurNone)}:      "append_client_journal+speculative_apply",
		{int(ConsSpeculative), int(DurLocal)}:     "append_client_journal+local_persist+speculative_apply",
		{int(ConsSpeculative), int(DurGlobal)}:    "append_client_journal+global_persist+speculative_apply",
		{int(ConsStrongEventual), int(DurNone)}:   "append_client_journal+converge_apply",
		{int(ConsStrongEventual), int(DurLocal)}:  "append_client_journal+local_persist+converge_apply",
		{int(ConsStrongEventual), int(DurGlobal)}: "append_client_journal+global_persist+converge_apply",
	}
	for key, dsl := range want {
		comp, err := Compile(Consistency(key[0]), Durability(key[1]))
		if err != nil {
			t.Errorf("compile (%d,%d): %v", key[0], key[1], err)
			continue
		}
		if comp.String() != dsl {
			t.Errorf("cell (%v,%v) = %q, want %q",
				Consistency(key[0]), Durability(key[1]), comp, dsl)
		}
		if err := ValidateComposition(comp); err != nil {
			t.Errorf("cell (%v,%v) invalid: %v",
				Consistency(key[0]), Durability(key[1]), err)
		}
	}
}

// TestCellExhaustive is the go-vet-style exhaustiveness guard: adding a
// consistency or durability enum value automatically grows
// AllConsistencies/AllDurabilities (they iterate to the enum's max), so a
// new cell without a Compile row, a name, or a parse round-trip fails
// here rather than at runtime.
func TestCellExhaustive(t *testing.T) {
	cons := AllConsistencies()
	durs := AllDurabilities()
	if len(cons) != NumConsistencies || len(durs) != NumDurabilities {
		t.Fatalf("enum walk: %d consistencies, %d durabilities", len(cons), len(durs))
	}
	seen := make(map[string]bool)
	for _, c := range cons {
		// String must not fall through to the raw-number form, and must
		// parse back to the same value.
		if s := c.String(); strings.Contains(s, "Consistency(") {
			t.Errorf("consistency %d has no name", uint8(c))
		} else if back, err := ParseConsistency(s); err != nil || back != c {
			t.Errorf("consistency %v round trip: %v, %v", c, back, err)
		}
		for _, d := range durs {
			if s := d.String(); strings.Contains(s, "Durability(") {
				t.Errorf("durability %d has no name", uint8(d))
			} else if back, err := ParseDurability(s); err != nil || back != d {
				t.Errorf("durability %v round trip: %v, %v", d, back, err)
			}
			comp, err := Compile(c, d)
			if err != nil {
				t.Errorf("cell (%v,%v) has no composition row: %v", c, d, err)
				continue
			}
			if err := ValidateComposition(comp); err != nil {
				t.Errorf("cell (%v,%v) composition invalid: %v", c, d, err)
			}
			if seen[comp.String()] {
				t.Errorf("cell (%v,%v) composition %q duplicates another cell", c, d, comp)
			}
			seen[comp.String()] = true
			// The composition DSL itself must round-trip.
			again, err := ParseComposition(comp.String())
			if err != nil || again.String() != comp.String() {
				t.Errorf("cell (%v,%v) DSL round trip: %q, %v", c, d, again, err)
			}
		}
	}
	// Every mechanism any cell compiles to must be named and parseable.
	for m := MechInvalid + 1; m < mechMax; m++ {
		if s := m.String(); strings.Contains(s, "Mechanism(") {
			t.Errorf("mechanism %d has no name", uint8(m))
		} else if back, err := ParseMechanism(s); err != nil || back != m {
			t.Errorf("mechanism %v round trip: %v, %v", m, back, err)
		}
	}
}

// Property: Compile output always validates and is decoupled exactly when
// consistency != strong.
func TestCompileQuick(t *testing.T) {
	f := func(c, d uint8) bool {
		cons := Consistency(int(c) % NumConsistencies)
		dur := Durability(int(d) % NumDurabilities)
		comp, err := Compile(cons, dur)
		if err != nil {
			return false
		}
		if ValidateComposition(comp) != nil {
			return false
		}
		wantDecoupled := cons != ConsStrong
		return comp.Contains(MechAppendClientJournal) == wantDecoupled
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMechanismStringUnknown(t *testing.T) {
	if s := Mechanism(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown mechanism string = %q", s)
	}
	if Mechanism(99).Valid() {
		t.Fatal("mechanism 99 reported valid")
	}
}

// TestParseFileLevelsFollowComposition: a raw composition registers the
// levels it implements — the durability as well as the consistency —
// and one that means nothing is refused at parse time.
func TestParseFileLevelsFollowComposition(t *testing.T) {
	for text, want := range map[string][2]int{
		"consistency: append_client_journal\ndurability: local_persist\n":                 {int(ConsInvisible), int(DurLocal)},
		"consistency: rpcs\ndurability: local_persist\n":                                  {int(ConsStrong), int(DurLocal)},
		"consistency: rpcs\ndurability: stream\n":                                         {int(ConsStrong), int(DurGlobal)},
		"consistency: rpcs\n":                                                             {int(ConsStrong), int(DurNone)},
		"consistency: append_client_journal+volatile_apply\n":                             {int(ConsWeak), int(DurNone)},
		"consistency: append_client_journal\ndurability: global_persist+converge_apply\n": {int(ConsStrongEventual), int(DurGlobal)},
		"consistency: append_client_journal+nonvolatile_apply\n":                          {int(ConsWeak), int(DurGlobal)},
	} {
		p, err := ParseFile(text)
		if err != nil {
			t.Errorf("ParseFile(%q): %v", text, err)
			continue
		}
		if got := [2]int{int(p.Consistency), int(p.Durability)}; got != want {
			t.Errorf("ParseFile(%q) registers %v/%v, want %v/%v", text,
				p.Consistency, p.Durability, Consistency(want[0]), Durability(want[1]))
		}
	}
	for _, text := range []string{
		"consistency: stream\n",
		"consistency: rpcs+volatile_apply\n",
		"consistency: rpcs\ndurability: global_persist\n",
		"consistency: append_client_journal+volatile_apply\ndurability: global_persist\n",
	} {
		if _, err := ParseFile(text); !errors.Is(err, ErrSenseless) {
			t.Errorf("ParseFile(%q) = %v, want ErrSenseless", text, err)
		}
	}
}

// TestParseFileRefusesLevelBesideRawComposition: a raw composition is
// the subtree's whole mechanism list, so a level name written for the
// other key is never composed. One the composition does not implement
// would be dropped: the file is refused, and the reason names the key.
// One it does implement is accepted, and so is the composition alone,
// which then decides both levels. A key written twice takes its last
// value, a level or a composition.
func TestParseFileRefusesLevelBesideRawComposition(t *testing.T) {
	for text, dropped := range map[string]string{
		"consistency: append_client_journal\ndurability: global\n":   "durability global",
		"durability: local\nconsistency: append_client_journal\n":    "durability local",
		"consistency: weak\ndurability: rpcs+stream\n":               "consistency weak",
		"consistency: rpcs\ndurability: local\n":                     "durability local",
		"consistency: rpcs\ndurability: none\n":                      "",
		"consistency: strong\ndurability: rpcs+stream\n":             "",
		"durability: stream\nconsistency: weak\nconsistency: rpcs\n": "",
		"consistency: rpcs\nconsistency: weak\ndurability: local\n":  "",
	} {
		_, err := ParseFile(text)
		switch {
		case dropped == "" && err != nil:
			t.Errorf("ParseFile(%q): %v", text, err)
		case dropped != "" && (!errors.Is(err, ErrParse) || err == nil || !strings.Contains(err.Error(), dropped+" would be dropped")):
			t.Errorf("ParseFile(%q) = %v, want a parse error naming %q", text, err, dropped)
		}
	}
	p, err := ParseFile("consistency: append_client_journal\n")
	if err != nil || p.Consistency != ConsInvisible || p.Durability != DurNone {
		t.Errorf("raw consistency alone: %+v, %v; want invisible/none", p, err)
	}
}

// TestPolicyStreams: a policy streams exactly when its composition
// contains Stream, whether compiled or written out, and asking costs no
// allocation (a rank asks for every mutation).
func TestPolicyStreams(t *testing.T) {
	for _, c := range AllConsistencies() {
		for _, d := range AllDurabilities() {
			p := &Policy{Consistency: c, Durability: d}
			comp, _ := p.Composition()
			if got, want := p.Streams(), comp.Contains(MechStream); got != want {
				t.Errorf("%v/%v: Streams() = %v, composition %q", c, d, got, comp)
			}
		}
	}
	p, err := ParseFile("consistency: rpcs\ndurability: stream\n")
	if err != nil || !p.Streams() {
		t.Fatalf("raw rpcs+stream: Streams() = %v, %v", p != nil && p.Streams(), err)
	}
	strong := Default()
	if n := testing.AllocsPerRun(100, func() { _ = strong.Streams() || p.Streams() }); n != 0 {
		t.Fatalf("Streams allocates %v times", n)
	}
}

// admittedRE states, apart from the mechanism table, every composition of
// distinct mechanisms one per step that means one thing: RPCs alone, with
// Stream in either order, or followed by Local Persist (strong/local);
// or the client journal, then Local and Global Persist in any order or
// neither, then at most one merge.
var admittedRE = regexp.MustCompile(`^(rpcs|rpcs\+stream|stream\+rpcs|rpcs\+local_persist|` +
	`append_client_journal(\+local_persist(\+global_persist)?|\+global_persist(\+local_persist)?)?` +
	`(\+(volatile_apply|nonvolatile_apply|speculative_apply|converge_apply))?)$`)

// TestValidateEveryOrderedSequence runs ValidateComposition over every
// ordered sequence of distinct mechanisms, one per step — 986 409 of
// them — and holds the accepted set to admittedRE: 29 sequences, 23
// mechanism sets, Table I's 15 cells among them. Every refusal names its
// reason.
func TestValidateEveryOrderedSequence(t *testing.T) {
	const total, accepted = 986409, 29
	var ms [mechMax - 1]Mechanism
	var steps [mechMax - 1]Step
	for i := range steps {
		steps[i].Parallel = ms[i : i+1]
	}
	var used [mechMax]bool
	seen, ok := 0, 0
	var walk func(n int)
	walk = func(n int) {
		if n > 0 {
			seen++
			comp := Composition(steps[:n])
			err := ValidateComposition(comp)
			if want := admittedRE.MatchString(comp.String()); (err == nil) != want {
				t.Errorf("ValidateComposition(%q) = %v, admitted %v", comp, err, want)
			}
			if err == nil {
				ok++
			} else if !errors.Is(err, ErrSenseless) || !strings.HasPrefix(err.Error(), ErrSenseless.Error()+": ") {
				t.Errorf("ValidateComposition(%q) = %v: no reason", comp, err)
			}
		}
		for m := MechInvalid + 1; m < mechMax; m++ {
			if !used[m] {
				used[m], ms[n] = true, m
				walk(n + 1)
				used[m] = false
			}
		}
	}
	walk(0)
	if seen != total || ok != accepted {
		t.Errorf("%d sequences, %d accepted; want %d, %d", seen, ok, total, accepted)
	}
	for _, c := range AllConsistencies() {
		for _, d := range AllDurabilities() {
			comp, err := Compile(c, d)
			if err == nil {
				err = ValidateComposition(comp)
			}
			if err != nil || cellOf(comp) != c || durabilityOf(comp) != d {
				t.Errorf("Compile(%v, %v) = %q (%v): levels %v/%v", c, d, comp, err, cellOf(comp), durabilityOf(comp))
			}
		}
	}
}
