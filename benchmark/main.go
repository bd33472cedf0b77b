// Command benchmark is the repo's performance yardstick: five workloads,
// eight end-to-end metrics measured with tracing off, and a separate
// traced pass that yields the per-layer numbers and an attribution table.
// See README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./benchmark -seed 1              # all workloads, end-to-end metrics
//	go run ./benchmark -seed 1 -trace 1     # all workloads, traced pass
//	go run ./benchmark -aa                  # same build twice, must agree
//	go run ./benchmark -workload real_io    # one workload, in this process
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"text/tabwriter"
)

// Sizing. A repetition runs the fixed operation counts declared next to
// each workload (wl_*.go), never a time limit, and measures for about
// repSeconds on the builder's 2-core machine. --seconds only sets how
// many repetitions a run makes, so no flag changes a working set.
// BENCHMARK.json pins run_seconds = runSeconds, which is 24 repetitions.
const (
	repSeconds = 0.5
	runSeconds = 12
)

// repsFor is the number of repetitions a run of --seconds makes.
func repsFor(seconds float64) int { return max(1, int(seconds/repSeconds+0.5)) }

// tracedPairs is how many untraced/traced repetition pairs the traced
// pass runs; end-to-end numbers never come from it.
func tracedPairs(reps int) int { return max(3, reps/4) }

// result is the last line a single-workload run prints: the contract
// between this program and whatever drives it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sideLine is printed by a single-workload run before its result line,
// prefixed with sidePrefix: what the parent's summary and the A/A mode
// need and the result's fixed key set has no room for.
type sideLine struct {
	VirtualS float64 `json:"virtual_s"` // sim_storm: simulated seconds, summed
	Counters counts  `json:"counters"`
	// Measured is every metric of the untraced repetitions as reported:
	// the bounded end-to-end ones and the two unbounded ones.
	Measured map[string]float64 `json:"measured"`
}

const sidePrefix = "#side "

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	out      string
}

// plantForTest is the test-only hook that plants one violation (see
// workloads.go); opScale and probeScale shrink every workload's operation
// counts and every probe loop so the test suite stays fast. Nothing
// outside bench_test.go sets any of them.
var (
	plantForTest string
	opScale      = 1.0
	probeScale   = 1.0
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all five, each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; repetition i uses seed+i")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measured time of a run on the builder's machine: a run makes seconds/0.5 repetitions of fixed operation counts")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.aa, "aa", false, "run the untraced pass twice on this build and fail if any end-to-end median moves by more than its bound")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for data dirs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	var err error
	switch {
	case o.workload != "":
		err = runOne(o, stdout)
	case o.aa:
		err = runAA(o, stdout, stderr)
	default:
		_, err = runAll(o, stdout, stderr, true)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: FAILED: %v\n", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its result line.
func runOne(o options, stdout io.Writer) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	cfg, err := hostConfig()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	printHeader(stdout, o)
	reps := repsFor(o.seconds)
	if o.trace == 1 {
		reps = tracedPairs(reps)
	}
	ctx := &runCtx{seed: o.seed, reps: reps, scale: opScale, hostCfg: cfg, outDir: o.out, plant: plantForTest}

	// The machine's speed is sampled before every repetition and after
	// the last (calib.go).
	cal := newCalibrator()
	var untraced, traced []*repResult
	if o.trace == 0 {
		for rep := 0; rep < reps; rep++ {
			cal.sample()
			r, err := w.run(ctx, rep, false)
			if err != nil {
				return fmt.Errorf("%s repetition %d: %w", w.name, rep, err)
			}
			untraced = append(untraced, r)
		}
		cal.sample()
		raw, attempted, failed := measuredOf(untraced)
		m := calibrated(raw, cal.speed())
		samples := 0
		for _, r := range untraced {
			samples += len(r.lat)
		}
		printMeasured(stdout, fmt.Sprintf("%s end-to-end (%d repetitions, %d latency samples pooled, seed %d; the last two are unbounded)",
			w.name, len(untraced), samples, o.seed), m, raw, cal)
		fmt.Fprintf(stdout, "  %d calls failed or were refused of %d attempted\n", failed, attempted)
		return printResult(stdout, totalsOf(untraced), m, m.subset(endToEnd), attempted, failed)
	}

	// Traced pass: untraced and traced repetitions alternate so both see
	// the same machine state; repetition i uses the same seed in both.
	for rep := 0; rep < reps; rep++ {
		cal.sample()
		for _, tr := range []bool{false, true} {
			r, err := w.run(ctx, rep, tr)
			if err != nil {
				return fmt.Errorf("%s repetition %d (traced=%v): %w", w.name, rep, tr, err)
			}
			if tr {
				traced = append(traced, r)
			} else {
				untraced = append(untraced, r)
			}
		}
		if u, t := untraced[rep].virtualS, traced[rep].virtualS; u != t {
			return checkErr("virtual-time", "%s repetition %d simulated %.9f s untraced and %.9f s traced", w.name, rep, u, t)
		}
	}
	cal.sample()
	m := newMetricSet(perLayer)
	m.set("bench.machine_speed", cal.speed())
	if err := runProbes(m, cfg, o.out, probeScale); err != nil {
		return err
	}
	um, uAttempted, uFailed := measuredOf(untraced)
	tm, tAttempted, tFailed := measuredOf(traced)
	u := totalsOf(untraced)
	perLayerOf(m, u, um, tm, untraced, traced)
	um = calibrated(um, cal.speed())
	for _, d := range unbounded {
		m.set(d.Name, um.vals[d.Name])
	}
	m.set("bench.unexplained_frac", printAttribution(stdout, w.name, attribution(w.name, m, u), u.cpuS))
	printSelfTimes(stdout, traced)
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	n, err := writeChrome(path, w.name, traced)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(stdout, "\nwrote %d spans to %s\n", n, path)
	printMetrics(stdout, fmt.Sprintf("%s per-layer (%d untraced + %d traced repetitions, seed %d)", w.name, len(untraced), len(traced), o.seed), perLayer, m)
	return printResult(stdout, u, um, m, uAttempted+tAttempted, uFailed+tFailed)
}

// printResult prints the side line (from the untraced repetitions) and
// then the result line, which must be the last line of standard output.
func printResult(stdout io.Writer, u runTotals, um, m *metricSet, attempted, failed int64) error {
	c, err := json.Marshal(sideLine{VirtualS: u.virtualS, Counters: u.counts, Measured: um.vals})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s%s\n", sidePrefix, c)
	line, err := json.Marshal(result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m.export()})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// childRun is what the parent keeps of one workload's process.
type childRun struct {
	res  result
	side sideLine
}

// runChild re-executes this binary for one workload, so peak RSS and CPU
// time are that workload's own, relays its report and parses its last
// lines.
func runChild(o options, workload string, stdout, stderr io.Writer, relay bool) (childRun, error) {
	var cr childRun
	exe, err := os.Executable()
	if err != nil {
		return cr, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", o.out)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		io.Copy(stdout, &buf)
		return cr, fmt.Errorf("workload %s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if last != "" && relay && !strings.HasPrefix(last, sidePrefix) {
			fmt.Fprintln(stdout, last)
		}
		if strings.HasPrefix(line, sidePrefix) {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, sidePrefix)), &cr.side); err != nil {
				return cr, fmt.Errorf("workload %s: side line: %w", workload, err)
			}
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return cr, err
	}
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return cr, fmt.Errorf("workload %s: result line: %w", workload, err)
	}
	if !cr.res.Correct {
		return cr, fmt.Errorf("workload %s reported incorrect outputs", workload)
	}
	return cr, nil
}

// runAll runs every workload in its own process, relays each one's report
// (which starts with the header) and prints a summary.
func runAll(o options, stdout, stderr io.Writer, relay bool) (map[string]childRun, error) {
	names := workloadNames()
	runs := make(map[string]childRun, len(names))
	for _, name := range names {
		cr, err := runChild(o, name, stdout, stderr, relay)
		if err != nil {
			return nil, err
		}
		runs[name] = cr
	}
	if relay && o.trace == 0 {
		fmt.Fprintf(stdout, "\nsummary (seed %d, --seconds %g, %d repetitions):\n", o.seed, o.seconds, repsFor(o.seconds))
		tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
		fmt.Fprint(tw, "metric\tunit")
		for _, name := range names {
			fmt.Fprintf(tw, "\t%s", name)
		}
		fmt.Fprintln(tw)
		for _, d := range measured {
			fmt.Fprintf(tw, "%s\t%s", d.Name, d.Unit)
			for _, name := range names {
				fmt.Fprintf(tw, "\t%s", formatValue(runs[name].side.Measured[d.Name]))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return runs, nil
}

// runAA is the A/A check: the untraced pass twice on the same build. Any
// end-to-end median that moves by more than its bound means the benchmark
// cannot resolve a change of that size, and sim_storm's counters and
// virtual time must repeat exactly.
func runAA(o options, stdout, stderr io.Writer) error {
	o.trace = 0
	printHeader(stdout, o)
	var passes [2]map[string]childRun
	for i := range passes {
		fmt.Fprintf(stdout, "A/A pass %d of 2...\n", i+1)
		runs, err := runAll(o, stdout, stderr, false)
		if err != nil {
			return err
		}
		passes[i] = runs
	}
	var bad []string
	fmt.Fprintf(stdout, "\nA/A table (seed %d, --seconds %g, %d repetitions; diff is how much worse pass 2 is, as a share of pass 1):\n", o.seed, o.seconds, repsFor(o.seconds))
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "| workload\t| metric\t| pass 1\t| pass 2\t| worse by\t| bound\t|")
	fmt.Fprintln(tw, "|---\t|---\t|---\t|---\t|---\t|---\t|")
	for _, name := range workloadNames() {
		for _, d := range measured {
			a, b := passes[0][name].side.Measured[d.Name], passes[1][name].side.Measured[d.Name]
			if d.Name == "fail_frac" {
				if b > a {
					bad = append(bad, name+"/"+d.Name)
				}
				fmt.Fprintf(tw, "| %s\t| %s\t| %s\t| %s\t| \t| any increase\t|\n", name, d.Name, formatValue(a), formatValue(b))
				continue
			}
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			// Only bounded metrics decide the exit status.
			bound, verdict := "none", ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if worse > d.Bound {
					verdict = " EXCEEDS"
					bad = append(bad, name+"/"+d.Name)
				}
			}
			fmt.Fprintf(tw, "| %s\t| %s\t| %s\t| %s\t| %+.2f%%%s\t| %s\t|\n", name, d.Name, formatValue(a), formatValue(b), 100*worse, verdict, bound)
		}
	}
	tw.Flush()
	a, b := passes[0]["sim_storm"].side, passes[1]["sim_storm"].side
	if a.Counters != b.Counters || a.VirtualS != b.VirtualS {
		return checkErr("virtual-time", "sim_storm differs between the A/A passes: %.9f s %+v vs %.9f s %+v", a.VirtualS, a.Counters, b.VirtualS, b.Counters)
	}
	fmt.Fprintf(stdout, "\nsim_storm identical in both passes: sim.virtual_s %.9f, counters %+v\n", a.VirtualS, a.Counters)
	if len(bad) > 0 {
		return fmt.Errorf("A/A medians moved by more than their bound: %s", strings.Join(bad, ", "))
	}
	return nil
}

// printHeader records what produced the numbers below it.
func printHeader(w io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	kernel := "unknown"
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		kernel = utsString(un.Sysname[:]) + " " + utsString(un.Release[:])
	}
	fmt.Fprintf(w, "cudele benchmark: commit %s, %s %s/%s, nproc %d, GOMAXPROCS %d (env GOMAXPROCS=%q GOGC=%q, not overridden), kernel %s, data dir %s on %s\n",
		commit, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		os.Getenv("GOMAXPROCS"), os.Getenv("GOGC"), kernel, o.out, fsType(o.out))
}

func utsString(f []int8) string {
	b := make([]byte, 0, len(f))
	for _, c := range f {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem holding dir (or its nearest existing
// parent), since fsync cost is the filesystem's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	for d := dir; ; d = filepath.Dir(d) {
		if syscall.Statfs(d, &st) == nil {
			break
		}
		if d == filepath.Dir(d) {
			return "unknown"
		}
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs type 0x%x", st.Type)
}
