package chaos

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmoke runs a batch of consecutive seeds — ten per cell of the
// fifteen-cell wheel — and fails with the full report (fault plans,
// violations, replay commands) if any schedule breaks its contract. CI
// runs a larger batch through cudele-bench; this keeps `go test`
// self-contained.
func TestSmoke(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	results := RunMany(Seeds(1, n), 0)
	var buf bytes.Buffer
	if failed := Report(&buf, results); failed > 0 {
		t.Errorf("%d schedules failed:\n%s", failed, buf.String())
	}
}

// TestMigrationSchedules runs every plan in seeds 1..1500 that migrates
// the main subtree mid-run — including ones that also crash the owning
// rank and ones that tear the export-commit record. This is the
// crash-matrix guarantee for online migration: whatever the handoff was
// doing when the fault struck, every contract still holds.
func TestMigrationSchedules(t *testing.T) {
	last := int64(1500)
	if testing.Short() {
		last = 150
	}
	var seeds []int64
	var withCrash, withTorn int
	for s := int64(1); s <= last; s++ {
		p := NewPlan(s)
		if !p.Migrate {
			continue
		}
		seeds = append(seeds, s)
		if p.TornCommit {
			withTorn++
		}
		for _, f := range p.Faults.Faults {
			if f.Kind == FaultMDSCrash {
				withCrash++
				break
			}
		}
	}
	if withCrash == 0 || withTorn == 0 {
		t.Fatalf("coverage hole in %d migration plans: %d with an MDS crash, %d with a torn commit record",
			len(seeds), withCrash, withTorn)
	}
	results := RunMany(seeds, 0)
	var buf bytes.Buffer
	if failed := Report(&buf, results); failed > 0 {
		t.Errorf("%d migration schedules failed:\n%s", failed, buf.String())
	}
	// At least some handoffs must actually commit, or the schedules are
	// exercising nothing but aborts.
	committed := 0
	for _, r := range results {
		committed += r.Migrations
	}
	if committed == 0 {
		t.Errorf("no migration committed across %d schedules", len(seeds))
	}
}

// TestDeterministicAcrossWorkers asserts the harness's core reproduction
// promise: the same seeds yield a byte-identical report at any worker
// count, so a CI failure replays exactly on a laptop.
func TestDeterministicAcrossWorkers(t *testing.T) {
	seeds := Seeds(1, 27)
	var reports []string
	for _, w := range []int{1, 4, 16} {
		var buf bytes.Buffer
		Report(&buf, RunMany(seeds, w))
		reports = append(reports, buf.String())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("report differs between 1 worker and %d workers", []int{1, 4, 16}[i])
		}
	}
}

// TestPlanDeterministic asserts a plan is a pure function of its seed —
// the property that makes -chaos-replay trustworthy.
func TestPlanDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		a, b := NewPlan(seed), NewPlan(seed)
		if a.String() != b.String() {
			t.Errorf("seed %d: plan not deterministic:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestSeedsCoverMatrix asserts fifteen consecutive seeds hit all fifteen
// cells: the nine of Table I plus speculative and strong-eventual
// crossed with every durability level.
func TestSeedsCoverMatrix(t *testing.T) {
	cells := make(map[string]bool)
	for _, seed := range Seeds(1, 15) {
		cells[NewPlan(seed).Cell()] = true
	}
	if len(cells) != 15 {
		t.Errorf("15 consecutive seeds cover %d cells, want 15: %v", len(cells), cells)
	}
}

// TestPlanStringLines asserts every part of a printed plan sits on its
// own line, with and without crash faults and migrations.
func TestPlanStringLines(t *testing.T) {
	var empty, faults, migrate bool
	for _, seed := range Seeds(0, 200) {
		p := NewPlan(seed)
		empty = empty || len(p.Faults.Faults) == 0
		faults = faults || len(p.Faults.Faults) > 0
		migrate = migrate || p.Migrate
		for _, line := range strings.Split(p.String(), "\n") {
			if i := strings.Index(line, "migrate:"); i > 0 {
				t.Fatalf("seed %d: migrate: glued onto %q", seed, line)
			}
		}
		if !strings.HasSuffix(p.String(), "\n") {
			t.Fatalf("seed %d: plan text does not end its last line:\n%q", seed, p.String())
		}
	}
	if !empty || !faults || !migrate {
		t.Fatalf("200 seeds missed a shape: empty=%v faults=%v migrate=%v", empty, faults, migrate)
	}
}

// TestReportFailureBlock asserts a failing result reprints its plan and
// the replay command, which is what turns a CI red into a local repro.
func TestReportFailureBlock(t *testing.T) {
	r := Result{
		Seed:       99,
		Cell:       "weak/global",
		Violations: []string{"example violation"},
		PlanText:   NewPlan(99).String(),
	}
	var buf bytes.Buffer
	if failed := Report(&buf, []Result{r}); failed != 1 {
		t.Fatalf("Report returned %d failures, want 1", failed)
	}
	out := buf.String()
	for _, want := range []string{
		"seed 99 FAILED",
		"violation: example violation",
		"reproduce: cudele-bench -chaos-replay 99",
		"fault plan:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportColumnsAlign asserts the verdict column starts at the same
// offset in the header and in every row, whatever the cell name's length.
func TestReportColumnsAlign(t *testing.T) {
	var buf bytes.Buffer
	Report(&buf, RunMany(Seeds(1, 15), 0))
	lines := strings.Split(buf.String(), "\n")
	want := strings.Index(lines[0], "verdict")
	for _, line := range lines[1:16] {
		if got := strings.LastIndex(line, "ok"); got != want {
			t.Fatalf("verdict at column %d, header has it at %d:\n%s\n%s", got, want, lines[0], line)
		}
	}
}

// TestFlightDumpOnFailure forces a violation and asserts the failed
// result carries a flight-recorder dump naming the daemons, recent ops,
// and the violation itself — the "last events before the breakage" block
// a -chaos-replay report shows.
func TestFlightDumpOnFailure(t *testing.T) {
	forceViolation = true
	defer func() { forceViolation = false }()
	res := Run(1)
	if res.Passed() {
		t.Fatal("forced violation did not fail the schedule")
	}
	if res.FlightDump == "" {
		t.Fatal("failed schedule has no flight dump")
	}
	for _, want := range []string{
		"[chaos]",   // the oracle's ring
		"[mds.0]",   // the MDS op ring
		"violation", // the violation event itself
		"forced violation (test hook) after op",
	} {
		if !strings.Contains(res.FlightDump, want) {
			t.Errorf("flight dump missing %q:\n%s", want, res.FlightDump)
		}
	}

	var buf bytes.Buffer
	Report(&buf, []Result{res})
	if !strings.Contains(buf.String(), "flight recorder (last events before the violation):") {
		t.Errorf("report missing flight-recorder block:\n%s", buf.String())
	}
}

// TestFlightDumpOnlyOnFailure asserts passing schedules carry no dump —
// the recorder is observation-only and its output appears exclusively in
// failure reports.
func TestFlightDumpOnlyOnFailure(t *testing.T) {
	res := Run(1)
	if !res.Passed() {
		t.Fatalf("seed 1 unexpectedly failed: %v", res.Violations)
	}
	if res.FlightDump != "" {
		t.Errorf("passing schedule has a flight dump:\n%s", res.FlightDump)
	}
}
