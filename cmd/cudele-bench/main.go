// Command cudele-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	cudele-bench [-scale 1.0] [-seed 1] [-json DIR] [experiment ...]
//
// With no arguments (or the id "all") it runs every experiment; see
// -list for the registry. Scale 1.0 is paper scale (100K creates/client,
// 1M updates for fig6c); smaller scales preserve the normalized shapes
// and run much faster.
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
// -backend real executes the workload on real goroutines, wall clocks,
// and an fsynced object log (each real run's own temp dir, removed when
// the run ends) instead of the simulator, side by side with the
// simulated prediction for the same grid point. fig3a and heatskew
// support real mode (bench.RealIDs); "all" under -backend=real means
// "all real-capable experiments". Real tables carry machine-dependent
// wall-clock columns, so they are reported (and, with -json DIR, written
// as BENCH_fig3a-real.json and BENCH_heatskew-real.json) but never
// replace the committed sim baselines. A bench run serves no live
// endpoint: its metrics come from -metrics, its profile from
// -cpuprofile, and its heat shares from the heatskew table (the
// cudele shell's -admin serves a live cluster).
//
// -chaos N runs N seeded fault-injection schedules (starting at -seed,
// walking all fifteen consistency x durability cells — Table I plus
// speculative and strong-eventual — every fifteen seeds) against the
// policy-contract checker instead of the experiments, and exits non-zero
// if any schedule violates its contract. A failing seed reproduces
// exactly with -chaos-replay SEED, which runs that one schedule and
// prints its fault plan — and, since every schedule is traced, the
// failure report includes the trace's tail: the last events (RPC spans,
// faults, crashes, handoff phases) each daemon saw before the violation,
// and the seed's replay command. That report is a failing seed's whole
// artifact.
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
	"os"
	"path/filepath"
	"strings"
	"time"

	"cudele"
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
	chaosReplay := flag.Int64("chaos-replay", 0, "replay one fault-injection schedule by seed and print its plan")
	backendName := flag.String("backend", "sim", "execution backend: sim (deterministic simulator) or real (goroutines, wall clock, fsync)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file, every sample labelled with its owner: proc (task, client or daemon) and, inside a metadata rank or the monitor, op (passive: tables are byte-identical)")
	flag.Parse()

	backend, err := cudele.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cudele-bench: %v\n", err)
		os.Exit(2)
	}
	// Seed 0 is a schedule like any other, so "replay requested" is the
	// flag's presence, not a non-zero value.
	replay := false
	flag.Visit(func(f *flag.Flag) { replay = replay || f.Name == "chaos-replay" })

	// exitWith ends the CPU profile, when one is being taken, before the
	// process goes.
	stopProfile := func() error { return nil }
	if *cpuProfile != "" {
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

	if replay {
		exitWith(reportChaos(os.Stdout, chaos.RunMany(chaos.Seeds(*chaosReplay, 1)), true))
	}
	if *chaosN > 0 {
		exitWith(reportChaos(os.Stdout, chaos.RunMany(chaos.Seeds(*seed, *chaosN)), false))
	}

	if *list {
		for _, id := range bench.IDs() {
			e, _ := bench.Lookup(id)
			fmt.Printf("%-12s %s\n", id, e.Title)
		}
		exitWith(0)
	}

	// Under -backend=real the universe of experiments shrinks to the
	// real-capable set; "all" (and an empty list) means exactly that set.
	universe := bench.IDs()
	if backend == cudele.BackendReal {
		universe = bench.RealIDs()
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = universe
	} else {
		// "all" anywhere in the list expands to the full universe.
		expanded := make([]string, 0, len(ids))
		for _, id := range ids {
			if id == "all" {
				expanded = append(expanded, universe...)
			} else {
				expanded = append(expanded, id)
			}
		}
		ids = expanded
	}
	opts := bench.Options{Scale: *scale, Seed: *seed}
	if *tracePath != "" || *metricsPath != "" {
		opts.Sink = bench.NewSink(*tracePath != "")
	}

	exit := 0
	for _, id := range ids {
		if _, ok := bench.Lookup(id); !ok {
			fmt.Fprintf(os.Stderr, "cudele-bench: unknown experiment %q\nvalid ids: all %s\n",
				id, strings.Join(bench.IDs(), " "))
			exit = 1
			continue
		}
		start := time.Now()
		var res *bench.Result
		var err error
		if backend == cudele.BackendReal {
			res, err = bench.RunReal(id, opts)
		} else {
			res, err = bench.Run(id, opts)
		}
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

// reportChaos writes the verdicts of fault-injection schedules to w and
// returns the exit code. With verbose set (replay mode) the plan prints
// even on success, so a passing replay still shows what was exercised.
// A failing seed's section of the report holds its fault plan,
// violations, flight dump and replay command: it is the CI failure
// artifact.
func reportChaos(w io.Writer, results []chaos.Result, verbose bool) int {
	if verbose {
		for _, r := range results {
			fmt.Fprintf(w, "%s\n", r.PlanText)
		}
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
