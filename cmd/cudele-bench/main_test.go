package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cudele/internal/chaos"
)

// benchBin is the command built once for the tests that drive its flags.
var benchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cudele-bench-test-*")
	if err != nil {
		panic(err)
	}
	benchBin = filepath.Join(dir, "cudele-bench")
	if out, err := exec.Command("go", "build", "-o", benchBin, ".").CombinedOutput(); err != nil {
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestChaosModeCoversTheWheel: -chaos 15 runs fifteen schedules, one per
// cell, prints one row each, and exits 0 when all pass.
func TestChaosModeCoversTheWheel(t *testing.T) {
	out, err := exec.Command(benchBin, "-chaos", "15", "-seed", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("-chaos 15: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 17 { // header, fifteen rows, summary
		t.Fatalf("got %d lines, want 17:\n%s", len(lines), out)
	}
	cells := map[string]bool{}
	for _, row := range lines[1:16] {
		cells[strings.Fields(row)[1]] = true
	}
	if len(cells) != 15 {
		t.Errorf("fifteen seeds covered %d cells: %v", len(cells), cells)
	}
	if lines[16] != "chaos: 15/15 schedules passed" {
		t.Errorf("summary line = %q", lines[16])
	}
}

// TestChaosReplaySeedZero: a failing seed replays as -chaos 1 -seed S,
// which prints the schedule's plan before its verdict; seed 0 is a
// schedule like any other.
func TestChaosReplaySeedZero(t *testing.T) {
	out, err := exec.Command(benchBin, "-chaos", "1", "-seed", "0").CombinedOutput()
	if err != nil {
		t.Fatalf("-chaos 1 -seed 0: %v\n%s", err, out)
	}
	for _, want := range []string{"seed=0 cell=", "fault plan:", "chaos: 1/1 schedules passed"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("replay output misses %q:\n%s", want, out)
		}
	}
}

// TestListNamesRealTables: -list names every registered table, the
// real-backend ones that "all" leaves out included.
func TestListNamesRealTables(t *testing.T) {
	out, err := exec.Command(benchBin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, id := range []string{"fig3a", "fig3a-real", "heatskew", "heatskew-real"} {
		if !strings.Contains("\n"+string(out), "\n"+id+" ") {
			t.Errorf("-list does not name %s:\n%s", id, out)
		}
	}
}

// TestBadInputIsRefused: a -scale or -chaos value that would run something
// other than what it asks for is refused with exit code 2, before any
// run. So is an unknown experiment, with exit code 1.
func TestBadInputIsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0", "table1"},
		{"-scale=-1", "table1"},
		{"-scale", "NaN", "table1"},
		{"-scale", "+Inf", "table1"},
		{"-chaos=-1"},
	} {
		out, err := exec.Command(benchBin, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2\n%s", args, err, out)
		} else if strings.Contains(string(out), "==") {
			t.Errorf("%v printed a table:\n%s", args, out)
		}
	}
	out, err := exec.Command(benchBin, "-scale", "0.002", "nope").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(string(out), `unknown experiment "nope"`) {
		t.Errorf("unknown experiment: %v, want exit status 1 naming it\n%s", err, out)
	}
}

// TestChaosFailureExitsOneAndReports: a schedule with a violation makes
// the command exit 1, and the report alone is the failure's artifact: it
// holds the seed's fault plan, its violation, the trace's tail and the
// replay line.
func TestChaosFailureExitsOneAndReports(t *testing.T) {
	failed := chaos.Result{
		Seed: 7, Cell: "weak/local", PlanText: chaos.NewPlan(7).String(),
		Violations: []string{"example violation"}, FlightDump: "[chaos]\n  t=1ms oracle violation\n",
	}
	passed := chaos.Result{Seed: 8, Cell: "strong/local"}
	var report bytes.Buffer
	if code := reportChaos(&report, []chaos.Result{failed, passed}); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	for _, want := range []string{
		failed.PlanText, "violation: example violation", "oracle violation",
		"reproduce: " + failed.ReplayCommand(), "chaos: 1/2 schedules FAILED",
	} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report misses %q:\n%s", want, report.String())
		}
	}
}

// TestJSONIdenticalAtAnyParallel: a BENCH_<id>.json holds only what the
// seed and scale reproduce, so the files written with GOMAXPROCS=1 (one
// run at a time) and GOMAXPROCS=2 are byte-identical.
func TestJSONIdenticalAtAnyParallel(t *testing.T) {
	ids := []string{"table1", "fig5"}
	dirs := make([]string, 2)
	for i, procs := range []string{"1", "2"} {
		dirs[i] = t.TempDir()
		cmd := exec.Command(benchBin, append([]string{"-scale", "0.002", "-json", dirs[i]}, ids...)...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v\n%s", procs, err, out)
		}
	}
	for _, id := range ids {
		name := "BENCH_" + id + ".json"
		seq, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		par, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq, par) {
			t.Errorf("%s differs between GOMAXPROCS=1 and GOMAXPROCS=2:\n--- 1 ---\n%s\n--- 2 ---\n%s", name, seq, par)
		}
	}
}
