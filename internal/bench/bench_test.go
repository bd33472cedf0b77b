package bench

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tiny is small but large enough that normalized shapes survive.
var tiny = Options{Scale: 0.01, Seed: 1}

// cell parses a numeric table cell, tolerating "x" and "%" suffixes.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSpace(s), "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

func TestRegistry(t *testing.T) {
	// "all" runs exactly the committed baselines, so a wall-clock table
	// can never slip into bench-check.
	files, err := filepath.Glob("../../results/BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, f := range files {
		want = append(want, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json"))
	}
	if ids := IDs(); len(want) == 0 || !slices.Equal(ids, want) {
		t.Fatalf("IDs() = %v, want the committed baselines %v", ids, want)
	}
	if _, err := Run("nope", tiny); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRender(t *testing.T) {
	r := &Result{
		ID: "x", Title: "t",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "hello, world"}},
	}
	r.Notef("n=%d", 5)
	out := r.Render()
	for _, want := range []string{"== x: t ==", "a", "hello, world", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	r, err := Run("table1", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Spot-check the corners of Table I.
	if r.Rows[0][1] != "append_client_journal" {
		t.Errorf("none/invisible = %q", r.Rows[0][1])
	}
	if r.Rows[2][3] != "rpcs+stream" {
		t.Errorf("global/strong = %q", r.Rows[2][3])
	}
}

func TestFig2UntarDominates(t *testing.T) {
	r, err := Run("fig2", Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	combined := map[string]float64{}
	for _, row := range r.Rows {
		combined[row[0]] = cell(t, row[len(row)-1])
	}
	for phase, v := range combined {
		if phase != "untar" && v >= combined["untar"] {
			t.Errorf("phase %s combined %.1f >= untar %.1f", phase, v, combined["untar"])
		}
	}
}

func TestFig3aShape(t *testing.T) {
	r, err := Run("fig3a", Options{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(clientCounts) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Slowdowns grow with client count for every config.
	for col := 1; col <= 5; col++ {
		first := cell(t, r.Rows[0][col])
		last := cell(t, r.Rows[len(r.Rows)-1][col])
		if last <= first {
			t.Errorf("config %s: slowdown %0.2f at 20 clients not above %0.2f at 1",
				r.Columns[col], last, first)
		}
	}
	// Journaling always costs something: every journal config is slower
	// than no-journal at max scale.
	last := r.Rows[len(r.Rows)-1]
	noJournal := cell(t, last[1])
	for col := 2; col <= 5; col++ {
		if cell(t, last[col]) <= noJournal {
			t.Errorf("journal config %s (%.2f) not slower than no-journal (%.2f)",
				r.Columns[col], cell(t, last[col]), noJournal)
		}
	}
	// The paper's ordering: dispatch 30 degrades more than dispatch 1.
	if cell(t, last[4]) <= cell(t, last[2]) {
		t.Errorf("dispatch 30 (%.2f) not slower than dispatch 1 (%.2f)",
			cell(t, last[4]), cell(t, last[2]))
	}
}

// The interference figures share one simulation of each, run into one
// sink: Fig 6b is Fig 3b's grid plus its block column, so together they
// must register fig3b's 37 runs and fig6b's 55, none twice. interfMetrics
// is the sink's metrics dump after fig3b, before fig6b.
var (
	interfOnce    sync.Once
	interfFig3    *Result
	interfFig6    *Result
	interfRuns    int
	interfMetrics string
	interfErr     error
)

func interferenceFigs() (fig3b, fig6b *Result, runs int, err error) {
	interfOnce.Do(func() {
		opts := tiny
		opts.Sink = NewSink(false)
		if interfFig3, interfErr = Run("fig3b", opts); interfErr != nil {
			return
		}
		var dump strings.Builder
		if interfErr = opts.Sink.WriteMetrics(&dump); interfErr != nil {
			return
		}
		interfMetrics = dump.String()
		interfFig6, interfErr = Run("fig6b", opts)
		interfRuns = len(opts.Sink.runs)
	})
	return interfFig3, interfFig6, interfRuns, interfErr
}

func TestFig3bInterferenceHurts(t *testing.T) {
	r, _, _, err := interferenceFigs()
	if err != nil {
		t.Fatal(err)
	}
	last := r.Rows[len(r.Rows)-1]
	noInterf, interf := cell(t, last[1]), cell(t, last[3])
	if interf <= noInterf {
		t.Errorf("interference slowdown %.2f not above no-interference %.2f", interf, noInterf)
	}
}

// TestFig6bBlockHelps also pins that Fig 6b's table is Fig 3b's plus the
// block column and that each figure simulates its grid once.
func TestFig6bBlockHelps(t *testing.T) {
	r3, r6, runs, err := interferenceFigs()
	if err != nil {
		t.Fatal(err)
	}
	last := r6.Rows[len(r6.Rows)-1]
	interf, block := cell(t, last[3]), cell(t, last[5])
	if block >= interf {
		t.Errorf("block slowdown %.2f not below interference %.2f", block, interf)
	}
	if r6.Title != r3.Title || !slices.Equal(r6.Columns[:5], r3.Columns) || len(r6.Rows) != len(r3.Rows) {
		t.Fatalf("fig6b's table does not extend fig3b's:\n%s\n%s", r3.Render(), r6.Render())
	}
	for i, row := range r3.Rows {
		if !slices.Equal(r6.Rows[i][:5], row) {
			t.Errorf("row %d: fig6b %v, fig3b %v", i, r6.Rows[i][:5], row)
		}
	}
	if runs != 37+55 {
		t.Errorf("sink registered %d runs, want 37 (fig3b) + 55 (fig6b)", runs)
	}
}

// metricSum sums every series of the family name in a Prometheus dump.
func metricSum(t *testing.T, dump, name string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(dump, "\n") {
		if rest, ok := strings.CutPrefix(line, name+"{"); ok {
			sum += cell(t, rest[strings.LastIndexByte(rest, ' ')+1:])
		}
	}
	return sum
}

// TestFig3bKernelCounts pins what Fig 3b costs the simulator at this
// scale, from the kernel's counters in the metrics: the events its loop
// pops per client RPC, and processes run on a small fraction of a
// coroutine each (the ones that return hand theirs on). The counters are
// plain adds that decide nothing, so the table with metrics on is the
// table without.
func TestFig3bKernelCounts(t *testing.T) {
	r, _, _, err := interferenceFigs()
	if err != nil {
		t.Fatal(err)
	}
	events := metricSum(t, interfMetrics, "cudele_sim_events_total")
	rpcs := metricSum(t, interfMetrics, "cudele_client_rpcs_total")
	procs := metricSum(t, interfMetrics, "cudele_sim_procs_total")
	coroutines := metricSum(t, interfMetrics, "cudele_sim_coroutines_total")
	t.Logf("%.0f events for %.0f RPCs; %.0f coroutines for %.0f procs", events, rpcs, coroutines, procs)
	if got := fmt.Sprintf("%.3f", events/rpcs); got != "5.311" {
		t.Errorf("%s events per RPC, want 5.311", got)
	}
	if procs == 0 || coroutines*20 > procs {
		t.Errorf("%.0f coroutines for %.0f procs, want at most one per 20", coroutines, procs)
	}
	plain, err := Run("fig3b", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Render() != r.Render() {
		t.Errorf("counting moved the table:\n--- metrics off ---\n%s\n--- metrics on ---\n%s", plain.Render(), r.Render())
	}
}

func TestFig3cLookupsAppear(t *testing.T) {
	r, err := Run("fig3c", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no samples")
	}
	// In the interference run, lookup RPCs appear by the end; in the
	// no-interference run they stay near zero.
	lastRow := r.Rows[len(r.Rows)-1]
	if cell(t, lastRow[4]) <= cell(t, lastRow[2]) {
		t.Errorf("interference lookups %s not above no-interference %s", lastRow[4], lastRow[2])
	}
}

func TestFig5Ordering(t *testing.T) {
	r, err := fig5At05()
	if err != nil {
		t.Fatal(err)
	}
	norm := map[string]float64{}
	for _, row := range r.Rows {
		norm[row[1]] = cell(t, row[3])
	}
	// The paper's ordering relations.
	if norm["nonvolatile_apply"] <= norm["rpcs"] {
		t.Errorf("nonvolatile (%.1f) not above rpcs (%.1f)", norm["nonvolatile_apply"], norm["rpcs"])
	}
	if norm["rpcs"] <= norm["volatile_apply"] {
		t.Errorf("rpcs (%.1f) not above volatile (%.1f)", norm["rpcs"], norm["volatile_apply"])
	}
	if norm["rpcs"] < 10 {
		t.Errorf("rpcs %.1fx, want >10x", norm["rpcs"])
	}
	if norm["local_persist"] >= 1 {
		t.Errorf("local persist %.2fx, want <1x", norm["local_persist"])
	}
	if norm["global_persist"] <= norm["local_persist"] {
		t.Errorf("global (%.2f) not above local (%.2f)", norm["global_persist"], norm["local_persist"])
	}
	if norm["stream (journal on - off)"] <= norm["local_persist"] {
		t.Errorf("stream (%.2f) not the most expensive durability bar", norm["stream (journal on - off)"])
	}
}

func TestFig6aOrdering(t *testing.T) {
	r, err := fig6aAt05()
	if err != nil {
		t.Fatal(err)
	}
	last := r.Rows[len(r.Rows)-1]
	rpc, merge, create := cell(t, last[1]), cell(t, last[2]), cell(t, last[3])
	if !(create > merge && merge > rpc) {
		t.Errorf("ordering broken: create %.1f, merge %.1f, rpc %.1f", create, merge, rpc)
	}
	// Decoupled creates scale linearly: at 20 clients they beat RPCs by
	// a wide margin even at tiny scale.
	if create/rpc < 10 {
		t.Errorf("create/rpc ratio = %.1f, want >10", create/rpc)
	}
}

func TestFig6cShape(t *testing.T) {
	r, err := Run("fig6c", Options{Scale: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	over1 := cell(t, r.Rows[0][2])
	over10 := cell(t, r.Rows[3][2])
	if over1 <= over10 {
		t.Errorf("1 s overhead %.1f%% not above 10 s overhead %.1f%%", over1, over10)
	}
	for i, row := range r.Rows {
		if cell(t, row[2]) < 0 {
			t.Errorf("row %d negative overhead", i)
		}
	}
}

func TestMultiMDSThroughputScales(t *testing.T) {
	r, err := Run("multimds", Options{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(multiMDSRanks) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Aggregate create throughput must rise with every added rank while
	// the MDS CPU is the bottleneck.
	prev := 0.0
	for _, row := range r.Rows {
		rate := cell(t, row[2])
		if rate <= prev {
			t.Errorf("ranks=%s: %.0f creates/s not above %.0f at previous rank count", row[0], rate, prev)
		}
		prev = rate
	}
	// 4 ranks should come well clear of the single-MDS saturation point.
	first, last := cell(t, r.Rows[0][2]), cell(t, r.Rows[len(r.Rows)-1][2])
	if last/first < 2 {
		t.Errorf("4-rank speedup = %.2fx, want >2x", last/first)
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.001}
	if got := o.scaled(100000, 200); got != 200 {
		t.Fatalf("floor not applied: %d", got)
	}
	o = Options{Scale: 0}
	if got := o.scaled(100, 1); got != 100 {
		t.Fatalf("zero scale: %d", got)
	}
}
