package chaos

import (
	"bytes"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"

	"cudele/internal/policy"
	"cudele/internal/runtime"
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
	results := RunMany(Seeds(1, n))
	var buf bytes.Buffer
	if failed := Report(&buf, results); failed > 0 {
		t.Errorf("%d schedules failed:\n%s", failed, buf.String())
	}
	// Every planned crash lands exactly once.
	for _, r := range results {
		if want := len(NewPlan(r.Seed).Faults); r.CrashFaults != want {
			t.Errorf("seed %d: %d crashes applied, plan has %d", r.Seed, r.CrashFaults, want)
		}
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
		for _, f := range p.Faults {
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
	results := RunMany(seeds)
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

// TestFaultsStrikeTheWorkload: a plan's crashes and migrations count
// from the end of set-up, so none of them is due or has started when
// the workload's first op begins, and each strikes at its planned offset
// past set-up, not all of them together at the first op; set-up leaves
// the plan as generated. Over the first 150 seeds, whose plans crash
// and migrate in every cell.
func TestFaultsStrikeTheWorkload(t *testing.T) {
	var crashes, migrations int
	for seed := int64(1); seed <= 150; seed++ {
		plan := NewPlan(seed)
		crashes += len(plan.Faults)
		migrations += len(plan.MigrateAt)
		d := newDriver(plan)
		d.cl.Go("probe", func(p runtime.Task) {
			if !d.setup(p) {
				t.Errorf("seed %d: set-up failed: %v", seed, d.res.Violations)
				return
			}
			if d.start != p.Now() {
				t.Errorf("seed %d: offsets count from %v, set-up ended at %v", seed, d.start, p.Now())
			}
			if d.plan.String() != NewPlan(seed).String() {
				t.Errorf("seed %d: set-up rewrote the plan:\n%s", seed, d.plan)
			}
			if plan.Migrate {
				d.startMigrator()
			}
			p.Sleep(1) // let anything due now start
			if len(plan.Faults) > 0 && d.start+plan.Faults[0].At <= p.Now() {
				t.Errorf("seed %d: crash at offset %v due before the first op", seed, plan.Faults[0].At)
			}
			if d.midMigration() || d.res.Migrations != 0 {
				t.Errorf("seed %d: migration started before the first op", seed)
			}
		})
		d.cl.RunAll()
		d.cl.Runtime().Shutdown()
	}
	if crashes == 0 || migrations == 0 {
		t.Fatalf("seeds 1-150 plan %d crashes and %d migrations", crashes, migrations)
	}
}

// TestCrashDueAtBoundary: a crash due exactly at an op boundary's clock
// lands at that boundary, and one due a nanosecond later does not: it
// lands the next time drain reads the clock. A crash's restart moves the
// clock on, so a second crash due during it lands right after it, in
// the same drain; one due past the drain's end waits for the next
// boundary.
func TestCrashDueAtBoundary(t *testing.T) {
	plan := NewPlan(1)
	plan.Faults, plan.Migrate, plan.Background = nil, false, false
	d := newDriver(plan)
	defer d.cl.Close()
	crash := func(at runtime.Time) Fault {
		return Fault{At: at - d.start, Kind: FaultClientCrash}
	}
	d.cl.Go("probe", func(p runtime.Task) {
		if !d.setup(p) {
			t.Errorf("set-up failed: %v", d.res.Violations)
			return
		}
		d.step(p)
		at := p.Now()
		d.plan.Faults = []Fault{crash(at), crash(at + 1)}
		d.drain(p)
		end := p.Now()
		d.plan.Faults = append(d.plan.Faults, crash(end+1))
		d.drain(p)
		if d.res.CrashFaults != 2 {
			t.Errorf("%d crashes applied by the first boundary, want 2", d.res.CrashFaults)
		}
		p.Sleep(1)
		d.drain(p)
		var landed []runtime.Time
		for _, in := range d.rec.Instants() {
			if in.Cat == "fault" {
				landed = append(landed, runtime.Time(in.At))
			}
		}
		if len(landed) != 3 || landed[0] != at || landed[1] <= at || landed[1] > end || landed[2] != end+1 {
			t.Errorf("boundary at %v, drain ended at %v: crashes landed at %v", at, end, landed)
		}
	})
	d.cl.RunAll()
	if !d.res.Passed() {
		t.Errorf("violations: %v", d.res.Violations)
	}
}

// TestRedeliveredCreateStaysBuried: in the strong-eventual cell a merge
// lands a create and, later in the same batch, its unlink; a client
// crash then recovers a Local Persist image from before the unlink, and
// the next merge delivers the create again with its original tag. The
// resolver keeps the entry dead, because the merged tombstone is later,
// so the oracle must not expect it visible — but it stays in the phantom
// bound. An MDS crash takes the resolver's summaries with it, and a
// delivery after it lands again. A cell that does not converge makes
// every accepted create visible.
func TestRedeliveredCreateStaysBuried(t *testing.T) {
	create := update{path: "/chaos/main/s000008", ino: 1<<40 + 8, name: "s000008"}
	unlink := update{path: create.path, name: create.name, unlink: true}
	for _, seed := range []int64{13, 4} { // strong-eventual/local, weak/local
		d := newDriver(NewPlan(seed))
		d.cl.Runtime().Shutdown()
		o, converges := d.o, d.plan.Cons == policy.ConsStrongEventual
		o.land([]update{create, unlink}, nil, true)
		o.land([]update{create}, nil, true)
		if _, visible := o.mdsMem[create.path]; visible == converges {
			t.Errorf("%s: the create delivered again after its merged unlink is visible=%v", d.plan.Cell(), visible)
		}
		if _, ok := o.pset[create.path]; !ok {
			t.Errorf("%s: the create delivered again left the phantom bound", d.plan.Cell())
		}
		o.mdsCrash(func(update) bool { return false })
		o.land([]update{create}, nil, true)
		if _, visible := o.mdsMem[create.path]; !visible {
			t.Errorf("%s: the create delivered after an MDS crash is not visible", d.plan.Cell())
		}
	}
}

// TestRecoveredAcksStayVisible runs five speculative plans. In each, a
// migration's save writes interfering RPC creates, which the policy does
// not make durable, into the directory objects, and then the owning rank
// crashes and recovers them. They stay visible, so the next merge's
// conflicts with them must be the oracle's prediction.
func TestRecoveredAcksStayVisible(t *testing.T) {
	for _, seed := range []int64{669, 866, 1209, 1225, 1285} {
		if r := Run(seed); !r.Passed() {
			var buf bytes.Buffer
			Report(&buf, []Result{r})
			t.Errorf("seed %d:\n%s", seed, buf.String())
		}
	}
}

// TestFlightDumpShowsHandoffSave: a handoff's save is in the flight dump,
// with the directories it wrote, between the freeze and the commit.
// Seed 669 saves /chaos/main before its torn export-commit record
// aborts the migration.
func TestFlightDumpShowsHandoffSave(t *testing.T) {
	forceViolation = true
	defer func() { forceViolation = false }()
	dump := Run(669).FlightDump
	if !strings.Contains(dump, "export.save /chaos/main dirs=3") {
		t.Errorf("flight dump has no export.save event:\n%s", dump)
	}
}

// TestFlightDumpShowsMigrationSpans: a failing migrating schedule's dump
// is the trace's tail, so it holds the monitor's commit point and, on the
// rank the subtree moved to, the transport spans of the client's RPCs
// with their client and route. Seed 56 moves /chaos/main from rank 0 to
// rank 1 once, and the client keeps creating in it there.
func TestFlightDumpShowsMigrationSpans(t *testing.T) {
	forceViolation = true
	defer func() { forceViolation = false }()
	dump := Run(56).FlightDump
	if !strings.Contains(dump, "monitor migrate.commit /chaos/main rank 0 -> 1 ") {
		t.Errorf("flight dump has no migrate.commit point:\n%s", dump)
	}
	_, rank1, _ := strings.Cut(dump, "[mds.1]\n")
	rank1, _, _ = strings.Cut(rank1, "\n[")
	if !regexp.MustCompile(`(?m)^  t=\S+ +transport rpc\.create chaos-main /chaos/main \[[^]]+\]$`).MatchString(rank1) {
		t.Errorf("rank 1's dump has no rpc.create span with its client and route:\n%s", rank1)
	}
}

// TestDeterministicAcrossWorkers asserts the harness's core reproduction
// promise: the same seeds yield a byte-identical report at any
// GOMAXPROCS, which sizes the worker pool, so a CI failure replays
// exactly on a laptop.
func TestDeterministicAcrossWorkers(t *testing.T) {
	seeds := Seeds(1, 27)
	procs := []int{1, 4, 16}
	var reports []string
	for _, n := range procs {
		old := goruntime.GOMAXPROCS(n)
		t.Cleanup(func() { goruntime.GOMAXPROCS(old) })
		var buf bytes.Buffer
		Report(&buf, RunMany(seeds))
		reports = append(reports, buf.String())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("report differs between GOMAXPROCS=1 and GOMAXPROCS=%d", procs[i])
		}
	}
}

// TestPlanDeterministic asserts a plan is a pure function of its seed —
// the property that makes a one-seed replay trustworthy.
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
// own line, with and without crash faults and migrations, and that no
// plan names a rank: on a migrating plan an MDS crash strikes whichever
// rank owns the workload's subtree when it lands.
func TestPlanStringLines(t *testing.T) {
	rank := regexp.MustCompile(`mds:?[0-9]`)
	var empty, faults, migrate, migratingMDSCrash bool
	for _, seed := range Seeds(0, 200) {
		p := NewPlan(seed)
		empty = empty || len(p.Faults) == 0
		faults = faults || len(p.Faults) > 0
		migrate = migrate || p.Migrate
		migratingMDSCrash = migratingMDSCrash || p.Migrate && strings.Contains(p.String(), FaultMDSCrash)
		if rank.MatchString(p.String()) {
			t.Fatalf("seed %d: plan text names a rank:\n%s", seed, p.String())
		}
		for _, line := range strings.Split(p.String(), "\n") {
			if i := strings.Index(line, "migrate:"); i > 0 {
				t.Fatalf("seed %d: migrate: glued onto %q", seed, line)
			}
		}
		if !strings.HasSuffix(p.String(), "\n") {
			t.Fatalf("seed %d: plan text does not end its last line:\n%q", seed, p.String())
		}
	}
	if !empty || !faults || !migrate || !migratingMDSCrash {
		t.Fatalf("200 seeds missed a shape: empty=%v faults=%v migrate=%v migrating MDS crash=%v",
			empty, faults, migrate, migratingMDSCrash)
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
		"reproduce: cudele-bench -chaos 1 -seed 99",
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
	Report(&buf, RunMany(Seeds(1, 15)))
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
// a one-seed replay's report shows.
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
