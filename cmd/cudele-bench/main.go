// Command cudele-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	cudele-bench [-scale 1.0] [-seed 1] [-parallel 0] [-csv] [-json] [experiment ...]
//
// With no arguments (or the id "all") it runs every experiment; see
// -list for the registry. Scale 1.0 is paper scale (100K creates/client,
// 1M updates for fig6c); smaller scales preserve the normalized shapes
// and run much faster.
//
// -parallel sets how many of an experiment's independent simulation runs
// execute concurrently (0 = GOMAXPROCS, 1 = sequential). Every run owns
// its own engine and seed, so the output is byte-identical for any value.
//
// -json additionally writes one BENCH_<id>.json per experiment (into
// -outdir) with the wall clock and the full table — the machine-readable
// baseline `make bench` commits under results/.
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
// and (with -datadir, default a temp dir) an fsynced object log instead
// of the simulator, side by side with the simulated prediction for the
// same grid point. Only fig3a supports real mode; "all" under
// -backend=real means "all real-capable experiments". Real tables carry
// machine-dependent wall-clock columns, so they are reported (and, with
// -json, written as BENCH_fig3a-real.json) but never replace the
// committed sim baselines.
//
// -chaos N runs N seeded fault-injection schedules (starting at -seed,
// walking all fifteen consistency x durability cells — Table I plus
// speculative and strong-eventual — every fifteen seeds) against the
// policy-contract checker instead of the experiments, and exits non-zero
// if any schedule violates its contract. A failing seed reproduces
// exactly with -chaos-replay SEED, which runs that one schedule and
// prints its fault plan — and, since every schedule is traced, the
// failure report includes the trace's tail: the last events (RPC spans,
// faults, crashes, handoff phases) each daemon saw before the violation.
// -chaos-dumps DIR additionally writes one flight-dump file per failing
// seed.
//
// -heat enables per-subtree heat accounting on every run of every
// experiment (heatskew and rebalance read heat themselves and keep their
// own half-life). Like -trace and -metrics it is passive: tables are
// byte-identical with it on.
//
// -admin ADDR (real backend only) serves a live admin endpoint while the
// experiments run: /metrics (Prometheus text), /heat (the decayed
// per-subtree heat map as JSON), /healthz, and /debug/pprof. Each real
// run installs itself as the scrape source for its duration; use :0 to
// bind an ephemeral port (the bound address prints on stdout).
// -admin-linger DUR keeps the endpoint serving that long after the last
// experiment finishes, so CI can scrape a completed run.
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
	ID               string     `json:"id"`
	Title            string     `json:"title"`
	Scale            float64    `json:"scale"`
	Seed             int64      `json:"seed"`
	Parallel         int        `json:"parallel"`
	WallClockSeconds float64    `json:"wall_clock_seconds"`
	Columns          []string   `json:"columns"`
	Rows             [][]string `json:"rows"`
	Notes            []string   `json:"notes,omitempty"`
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 1, "deterministic simulation seed")
	parallel := flag.Int("parallel", 0, "concurrent simulation runs per experiment (0 = GOMAXPROCS, 1 = sequential)")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	jsonOut := flag.Bool("json", false, "also write BENCH_<id>.json per experiment")
	outdir := flag.String("outdir", ".", "directory for -json output")
	list := flag.Bool("list", false, "list experiments and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of every simulation run to this file")
	metricsPath := flag.String("metrics", "", "write a Prometheus text dump of every run's daemon metrics to this file")
	chaosN := flag.Int("chaos", 0, "run N fault-injection schedules (seeds -seed..-seed+N-1) instead of experiments")
	chaosReplay := flag.Int64("chaos-replay", 0, "replay one fault-injection schedule by seed and print its plan")
	chaosDumps := flag.String("chaos-dumps", "", "chaos mode: write one flight dump (the trace's tail) per failing seed into this directory")
	backendName := flag.String("backend", "sim", "execution backend: sim (deterministic simulator) or real (goroutines, wall clock, fsync)")
	dataDir := flag.String("datadir", "", "real backend: directory for the fsynced object log (default: a fresh temp dir)")
	heat := flag.Bool("heat", false, "enable per-subtree heat accounting on every run (passive: tables are byte-identical)")
	adminAddr := flag.String("admin", "", "real backend: serve /metrics, /heat, /healthz, /debug/pprof on this address (:0 for an ephemeral port)")
	adminLinger := flag.Duration("admin-linger", 0, "keep the -admin endpoint serving this long after the last experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file, every sample labelled with its owner: proc (task, client or daemon) and, inside a metadata rank or the monitor, op (passive: tables are byte-identical)")
	flag.Parse()

	backend, err := cudele.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cudele-bench: %v\n", err)
		os.Exit(2)
	}
	if *dataDir != "" && backend != cudele.BackendReal {
		fmt.Fprintln(os.Stderr, "cudele-bench: -datadir requires -backend=real")
		os.Exit(2)
	}
	if *adminAddr != "" && backend != cudele.BackendReal {
		fmt.Fprintln(os.Stderr, "cudele-bench: -admin requires -backend=real (the simulator has no wall clock to serve on)")
		os.Exit(2)
	}
	if *adminLinger != 0 && *adminAddr == "" {
		fmt.Fprintln(os.Stderr, "cudele-bench: -admin-linger requires -admin")
		os.Exit(2)
	}
	// Seed 0 is a schedule like any other, so "replay requested" is the
	// flag's presence, not a non-zero value.
	replay := false
	flag.Visit(func(f *flag.Flag) { replay = replay || f.Name == "chaos-replay" })
	if *chaosDumps != "" && *chaosN == 0 && !replay {
		fmt.Fprintln(os.Stderr, "cudele-bench: -chaos-dumps requires -chaos or -chaos-replay")
		os.Exit(2)
	}

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
		exitWith(reportChaos(chaos.RunMany(chaos.Seeds(*chaosReplay, 1), 1), true, *chaosDumps))
	}
	if *chaosN > 0 {
		exitWith(reportChaos(chaos.RunMany(chaos.Seeds(*seed, *chaosN), *parallel), false, *chaosDumps))
	}

	if *list {
		for _, id := range bench.IDs() {
			e, _ := bench.Lookup(id)
			mark := ""
			if e.Utilization {
				mark = "  [utilization columns]"
			}
			fmt.Printf("%-12s %s%s\n", id, e.Title, mark)
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
	opts := bench.Options{Scale: *scale, Seed: *seed, Workers: *parallel, Heat: *heat}
	if *tracePath != "" || *metricsPath != "" {
		opts.Sink = bench.NewSink()
	}
	var admin *obs.Admin
	if *adminAddr != "" {
		admin, err = obs.NewAdmin(*adminAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cudele-bench: admin: %v\n", err)
			exitWith(1)
		}
		fmt.Printf("admin: listening on http://%s (endpoints: /metrics /heat /healthz /debug/pprof/)\n", admin.Addr())
		opts.Admin = admin
	}
	var tmpDataDir string
	if backend == cudele.BackendReal {
		if *dataDir == "" {
			dir, err := os.MkdirTemp("", "cudele-bench-*")
			if err != nil {
				fmt.Fprintf(os.Stderr, "cudele-bench: %v\n", err)
				exitWith(1)
			}
			tmpDataDir = dir
			*dataDir = dir
		}
		opts.DataDir = *dataDir
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
		if *csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Print(res.Render())
			fmt.Printf("(%s wall clock)\n\n", wall.Round(time.Millisecond))
		}
		if *jsonOut {
			if err := writeJSON(*outdir, res, opts, wall); err != nil {
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
	if admin != nil {
		if *adminLinger > 0 {
			fmt.Printf("admin: lingering %s on http://%s (last run stays scrapeable)\n", *adminLinger, admin.Addr())
			time.Sleep(*adminLinger)
		}
		admin.Close()
	}
	if tmpDataDir != "" {
		os.RemoveAll(tmpDataDir)
	}
	exitWith(exit)
}

// reportChaos prints the verdicts of fault-injection schedules and
// returns the exit code. With verbose set (replay mode) the plan prints
// even on success, so a passing replay still shows what was exercised.
// With dumpDir set, each failing seed's fault plan, violations, and
// flight dump are written to chaos-flight-<seed>.txt there (the
// CI failure artifact).
func reportChaos(results []chaos.Result, verbose bool, dumpDir string) int {
	if verbose {
		for _, r := range results {
			fmt.Printf("%s\n", r.PlanText)
		}
	}
	failed := chaos.Report(os.Stdout, results)
	if dumpDir != "" && failed > 0 {
		if err := writeChaosDumps(dumpDir, results); err != nil {
			fmt.Fprintf(os.Stderr, "cudele-bench: chaos dumps: %v\n", err)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeChaosDumps writes one flight-dump file per failing schedule.
func writeChaosDumps(dir string, results []chaos.Result) error {
	if err := os.MkdirAll(dir, 0755); err != nil {
		return err
	}
	for _, r := range results {
		if r.Passed() {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n", r.PlanText)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "violation: %s\n", v)
		}
		fmt.Fprintf(&b, "\nflight recorder (last events before the violation):\n%s", r.FlightDump)
		fmt.Fprintf(&b, "\nreproduce: %s\n", r.ReplayCommand())
		path := filepath.Join(dir, fmt.Sprintf("chaos-flight-%d.txt", r.Seed))
		if err := os.WriteFile(path, []byte(b.String()), 0644); err != nil {
			return err
		}
		fmt.Printf("chaos: wrote %s\n", path)
	}
	return nil
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

func writeJSON(dir string, res *bench.Result, opts bench.Options, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0755); err != nil {
		return err
	}
	out := benchJSON{
		ID: res.ID, Title: res.Title,
		Scale: opts.Scale, Seed: opts.Seed, Parallel: opts.Workers,
		WallClockSeconds: wall.Seconds(),
		Columns:          res.Columns, Rows: res.Rows, Notes: res.Notes,
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+res.ID+".json")
	return os.WriteFile(path, append(data, '\n'), 0644)
}
