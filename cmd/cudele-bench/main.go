// Command cudele-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	cudele-bench [-scale 1.0] [-seed 1] [-json DIR] [experiment ...]
//
// With no arguments (or the id "all") it runs every simulated
// experiment; see -list for the registry. Scale 1.0 is paper scale (100K
// creates/client, 1M updates for fig6c); smaller scales preserve the
// normalized shapes and run much faster.
//
// An experiment's independent simulation runs execute on GOMAXPROCS
// goroutines (GOMAXPROCS=1 runs them one at a time). Every run owns its
// own engine and seed, so the output is byte-identical for any value.
//
// -json DIR additionally writes one BENCH_<id>.json per experiment into
// DIR, holding the experiment's id, title, scale, seed and full table —
// the machine-readable baseline `make bench` commits under results/. The
// file holds only what the seed and scale reproduce: the wall clock
// prints on stdout beside the table.
//
// -trace FILE records every simulation run as spans on the shared virtual
// clock and writes one Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev); each run becomes its own process group. -metrics FILE
// writes a Prometheus text dump of every daemon's counters, histograms,
// and device utilizations, one `run` label per simulation. Both cover
// every experiment: each builds its clusters through one harness
// (internal/bench/session.go), which is where observation attaches.
// Observation is passive: tables are byte-identical with these flags on
// or off.
//
// fig3a-real and heatskew-real are the real-backend tables: each runs its
// workload on real goroutines, wall clocks and an fsynced object log (each
// real run's own temp dir, removed when the run ends) side by side with
// the simulated prediction for the same grid point. Their wall-clock
// columns are machine-dependent, so they run only when named — "all"
// leaves them out — and, with -json DIR, are written as
// BENCH_fig3a-real.json and BENCH_heatskew-real.json but never replace
// the committed sim baselines. A bench run serves no live endpoint: its
// metrics come from -metrics, its profile from -cpuprofile, and its heat
// shares from the heatskew tables (the cudele shell's -admin serves a live
// cluster).
//
// -chaos N runs N seeded fault-injection schedules (starting at -seed,
// walking all fifteen consistency x durability cells — Table I plus
// speculative and strong-eventual — every fifteen seeds) against the
// policy-contract checker instead of the experiments, and exits non-zero
// if any schedule violates its contract. A failing seed reproduces
// exactly with -chaos 1 -seed SEED: a run of one schedule prints its
// fault plan first — and, since every schedule is traced, the failure
// report includes the trace's tail: the last events (RPC spans, faults,
// crashes, handoff phases) each daemon saw before the violation, and the
// seed's replay command. That report is a failing seed's whole artifact.
//
// -cpuprofile FILE writes a CPU profile of the whole process (experiments
// or chaos schedules, either backend) with every sample labelled by its
// owner: proc is the task, client or daemon (mds.N, monitor, sim.kernel)
// and, inside a rank's handler or a monitor operation, op names the
// message or operation, so `go tool pprof -tags FILE` prints the shares
// per owner. Like -trace it is passive: tables are byte-identical with
// it on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"cudele/internal/bench"
	"cudele/internal/chaos"
	"cudele/internal/obs"
)

// benchJSON is the schema of a BENCH_<id>.json baseline file.
type benchJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Scale   float64    `json:"scale"`
	Seed    int64      `json:"seed"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 1, "deterministic simulation seed")
	jsonDir := flag.String("json", "", "also write BENCH_<id>.json per experiment into this directory")
	list := flag.Bool("list", false, "list experiments and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of every simulation run to this file")
	metricsPath := flag.String("metrics", "", "write a Prometheus text dump of every run's daemon metrics to this file")
	chaosN := flag.Int("chaos", 0, "run N fault-injection schedules (seeds -seed..-seed+N-1) instead of experiments")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file, every sample labelled with its owner: proc (task, client or daemon) and, inside a metadata rank or the monitor, op (passive: tables are byte-identical)")
	flag.Parse()

	if err := checkFlags(*scale, *chaosN); err != nil {
		fmt.Fprintf(os.Stderr, "cudele-bench: %v\n", err)
		os.Exit(2)
	}

	// exitWith ends the CPU profile, when one is being taken, before the
	// process goes.
	stopProfile := func() error { return nil }
	if *cpuProfile != "" {
		var err error
		if stopProfile, err = obs.StartCPUProfile(*cpuProfile); err != nil {
			fmt.Fprintf(os.Stderr, "cudele-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	exitWith := func(code int) {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "cudele-bench: cpuprofile: %v\n", err)
			code = 1
		}
		os.Exit(code)
	}

	if *chaosN > 0 {
		exitWith(reportChaos(os.Stdout, chaos.RunMany(chaos.Seeds(*seed, *chaosN))))
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		exitWith(0)
	}

	// "all", and an empty list, mean every simulated experiment; a
	// real-backend table runs only when named.
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	var ids []string
	for _, id := range args {
		if id == "all" {
			ids = append(ids, bench.IDs()...)
		} else {
			ids = append(ids, id)
		}
	}
	opts := bench.Options{Scale: *scale, Seed: *seed}
	if *tracePath != "" || *metricsPath != "" {
		opts.Sink = bench.NewSink(*tracePath != "")
	}

	exit := 0
	for _, id := range ids {
		start := time.Now()
		res, err := bench.Run(id, opts)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cudele-bench: %s: %v\n", id, err)
			exit = 1
			continue
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s wall clock)\n\n", wall.Round(time.Millisecond))
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, res, opts); err != nil {
				fmt.Fprintf(os.Stderr, "cudele-bench: %s: %v\n", id, err)
				exit = 1
			}
		}
	}
	if *tracePath != "" {
		if err := writeSink(*tracePath, opts.Sink.WriteChrome); err != nil {
			fmt.Fprintf(os.Stderr, "cudele-bench: trace: %v\n", err)
			exit = 1
		}
	}
	if *metricsPath != "" {
		if err := writeSink(*metricsPath, opts.Sink.WriteMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "cudele-bench: metrics: %v\n", err)
			exit = 1
		}
	}
	exitWith(exit)
}

// checkFlags refuses a -scale or -chaos value that would run something
// other than what it asks for: a scale must be a positive finite number
// (bench.Options maps a zero scale to paper scale, and NaN to every
// workload's floor), and a schedule count must not be negative.
func checkFlags(scale float64, chaosN int) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale %v: want a positive finite number", scale)
	}
	if chaosN < 0 {
		return fmt.Errorf("-chaos %d: want a count of schedules, 0 or more", chaosN)
	}
	return nil
}

// reportChaos writes the verdicts of fault-injection schedules to w and
// returns the exit code. A run of one schedule — a failing seed's replay —
// prints its plan first, even on success, so a passing replay still shows
// what was exercised. A failing seed's section of the report holds its
// fault plan, violations, flight dump and replay command: it is the CI
// failure artifact.
func reportChaos(w io.Writer, results []chaos.Result) int {
	if len(results) == 1 {
		fmt.Fprintf(w, "%s\n", results[0].PlanText)
	}
	if chaos.Report(w, results) > 0 {
		return 1
	}
	return 0
}

// writeSink streams one sink export into path.
func writeSink(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(dir string, res *bench.Result, opts bench.Options) error {
	if err := os.MkdirAll(dir, 0755); err != nil {
		return err
	}
	out := benchJSON{
		ID: res.ID, Title: res.Title,
		Scale: opts.Scale, Seed: opts.Seed,
		Columns: res.Columns, Rows: res.Rows, Notes: res.Notes,
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+res.ID+".json")
	return os.WriteFile(path, append(data, '\n'), 0644)
}
