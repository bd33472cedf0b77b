package policy

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseFile guards the policies-file parser, the decode boundary of
// every decouple: ParseFile must never panic, and a policy it accepts
// must carry every key's value (writtenReaches), pass Validate, compile
// to a mechanism composition whose levels are the policy's, and print as
// a policies file that parses back to it.
func FuzzParseFile(f *testing.F) {
	// Seeds: the policies texts the tests and examples decouple with,
	// every key, explicit mechanism DSL, and the error shapes the parser
	// rejects.
	for _, text := range []string{
		"",
		"consistency: weak\ndurability: local\nallocated_inodes: 1000\n",
		"consistency: weak\ndurability: none\nallocated_inodes: 500\n",
		"consistency: strong\ndurability: global\n",
		"consistency: weak\ndurability: local\nallocated_inodes: 2000\ninterfere: block\n",
		"\nconsistency: invisible\ndurability: local\nallocated_inodes: 10\n",
		"\n# BatchFS-style subtree\nconsistency: weak\ndurability: local\nallocated_inodes: 200000\ninterfere: block\n",
		"consistency: append_client_journal\ndurability: global_persist||local_persist\n",
		"consistency: weak\ndurability: global\nallocated_inodes: 100\n",
		"interfere: block\n",
		"consistency weak",
		"consistency: sorta",
		"allocated_inodes: -5",
		"mds_rank: -1",
		"favourite_colour: blue",
		"consistency: rpcs\ndurability: local_persist||stream\n",
		"consistency: rpcs\ndurability: stream\n",
		"consistency: append_client_journal\ndurability: local_persist+nonvolatile_apply\n",
		"consistency: rpcs+global_persist\n",
		"consistency: append_client_journal\ndurability: global\n",
		"durability: stream\nconsistency: strong\n",
		"consistency: rpcs\nconsistency: weak\ndurability: local\n",
		Default().String(),
		(&Policy{Consistency: ConsInvisible, Durability: DurLocal, AllocatedInodes: DefaultAllocatedInodes}).String(),
	} {
		f.Add(text)
	}

	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParseFile(text)
		if err != nil {
			return // rejected input; only panics are bugs here
		}
		if err := writtenReaches(text, p); err != nil {
			t.Fatalf("%v\n%q", err, text)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted policy fails Validate: %v\n%q", err, text)
		}
		comp, err := p.Composition()
		if err != nil {
			t.Fatalf("accepted policy does not compile: %v\n%q", err, text)
		}
		if c, d := cellOf(comp), durabilityOf(comp); c != p.Consistency || d != p.Durability {
			t.Fatalf("policy registers %v/%v, its composition %q implements %v/%v\n%q",
				p.Consistency, p.Durability, comp, c, d, text)
		}
		again, err := ParseFile(p.String())
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("String() does not parse back: %+v, %v\n%q", again, err, p.String())
		}
	})
}

// writtenReaches checks that the last value text writes for each key is
// in the policy p parsed from it: a level name is the key's level with
// no raw composition beside it, raw mechanisms are the key's
// composition, and a number or interfere mode is its field.
func writtenReaches(text string, p *Policy) error {
	last := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if key, value, ok := strings.Cut(strings.TrimSpace(line), ":"); ok && !strings.HasPrefix(key, "#") {
			last[strings.TrimSpace(key)] = strings.TrimSpace(value)
		}
	}
	for key, value := range last {
		n, err := strconv.Atoi(value)
		reached := false
		switch key {
		case "consistency":
			reached = reaches(value, ParseConsistency, p.Consistency, p.ConsistencyComp)
		case "durability":
			reached = reaches(value, ParseDurability, p.Durability, p.DurabilityComp)
		case "allocated_inodes":
			reached = err == nil && n == p.AllocatedInodes
		case "interfere":
			i, err := ParseInterfere(value)
			reached = err == nil && i == p.Interfere
		}
		if !reached {
			return fmt.Errorf("%s: %q did not reach the parsed policy %+v", key, value, p)
		}
	}
	return nil
}

// reaches reports whether value, written for one of the two levelled
// keys, is what the policy holds there: its level, with no raw
// composition beside it, or its composition.
func reaches[L comparable](value string, parse func(string) (L, error), level L, comp Composition) bool {
	if l, err := parse(value); err == nil {
		return comp == nil && l == level
	}
	want, err := ParseComposition(value)
	return err == nil && comp.String() == want.String()
}
