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

// TestChaosReplaySeedZero: seed 0 is a schedule like any other, so
// -chaos-replay 0 must replay it — not fall through to the experiments
// because the flag's value equals its default.
func TestChaosReplaySeedZero(t *testing.T) {
	out, err := exec.Command(benchBin, "-chaos-replay", "0").CombinedOutput()
	if err != nil {
		t.Fatalf("-chaos-replay 0: %v\n%s", err, out)
	}
	for _, want := range []string{"seed=0 cell=", "fault plan:", "chaos: 1/1 schedules passed"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("replay output misses %q:\n%s", want, out)
		}
	}
}

// TestChaosFailureExitsOneAndDumps: a schedule with a violation makes the
// command exit 1 and, with -chaos-dumps, leaves one flight-dump file
// whose replay line is the one the report prints.
func TestChaosFailureExitsOneAndDumps(t *testing.T) {
	failed := chaos.Result{
		Seed: 7, Cell: "weak/local", PlanText: chaos.NewPlan(7).String(),
		Violations: []string{"example violation"}, FlightDump: "[chaos]\n  t=1ms oracle violation\n",
	}
	passed := chaos.Result{Seed: 8, Cell: "strong/local"}
	dir := t.TempDir()
	if code := reportChaos([]chaos.Result{failed, passed}, false, dir); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 1 || filepath.Base(files[0]) != "chaos-flight-7.txt" {
		t.Fatalf("dump directory holds %v, want only chaos-flight-7.txt", files)
	}
	dump, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	chaos.Report(&report, []chaos.Result{failed})
	replay := "reproduce: " + failed.ReplayCommand()
	for name, text := range map[string]string{"dump": string(dump), "report": report.String()} {
		if !strings.Contains(text, replay) {
			t.Errorf("%s misses the replay line %q:\n%s", name, replay, text)
		}
	}
	for _, want := range []string{"example violation", "oracle violation", "seed=7"} {
		if !strings.Contains(string(dump), want) {
			t.Errorf("dump misses %q:\n%s", want, dump)
		}
	}
}
