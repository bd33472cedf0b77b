// Package chaos is the deterministic fault-injection and
// policy-contract checker for the simulated Cudele cluster.
//
// One chaos schedule is one seed: the seed picks a cell of the paper's
// consistency x durability matrix (Table I), generates a random-op
// workload, a crash fault plan, and a set of storage/network fault
// probabilities, then runs the REAL protocol stack — client journals,
// merge scheduler, journal streaming, RADOS objects — against a pure
// in-memory oracle that tracks exactly which updates each policy
// guarantees. After every fault and recovery the harness asserts the
// cell's contract:
//
//	DurNone    may lose everything on any failure
//	DurLocal   acked local persists survive a client crash+restart
//	DurGlobal  acked global persists / journal flushes survive any crash
//	ConsInvisible  updates never leak into the global namespace pre-merge
//	ConsStrong     acked updates are immediately visible
//
// The wheel also covers the two cells beyond Table I:
//
//	ConsSpeculative    a merge applies exactly the ops whose predictions
//	                   held (the oracle mirrors the validation), and every
//	                   rolled-back op vanishes from the client image and
//	                   never reaches the global namespace
//	ConsStrongEventual merged batches replayed in any permutation render
//	                   a byte-identical namespace image
//
// plus global invariants: no phantom namespace entries, inode grants
// respected, merge-scheduler slots freed, no leaked simulation
// processes. What differs between cells is one table (cells.go): a
// weighted op mix, where creates land, how merges validate, and the
// named contracts the cell carries.
//
// Schedules are fully deterministic: the same seed produces a
// byte-identical plan, schedule, and verdict at any GOMAXPROCS, so a
// failing seed from CI reproduces exactly with
// `cudele-bench -chaos 1 -seed <seed>`.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"cudele/internal/policy"
	"cudele/internal/runtime"
)

// Fault kinds a Plan can schedule. The driver quantizes both to
// operation boundaries: a crash lands between two workload ops (plus
// immediate restart and recovery), never mid-RPC. Mid-operation failure
// coverage comes from the RADOS write faults and transport faults,
// which strike inside operations.
const (
	FaultClientCrash = "client-crash"
	FaultMDSCrash    = "mds-crash"
)

// Fault is one planned crash: At past the end of the driver's set-up,
// Kind strikes Target. The driver applies it at the first op boundary
// whose clock has reached that time.
type Fault struct {
	At           runtime.Time
	Kind, Target string
}

// Plan is everything a chaos schedule needs, derived deterministically
// from its seed. Plans are data: printable for bug reports and
// re-derivable from the seed alone.
type Plan struct {
	Seed int64

	// Cell of the policy matrix under test. Consecutive seeds walk the
	// fifteen-cell wheel, so any fifteen contiguous seeds cover the whole
	// matrix.
	Cons policy.Consistency
	Dur  policy.Durability

	// Ops is the workload length in operations.
	Ops int

	// Chunked enables the streaming merge pipeline (chunked transfers
	// through the MDS merge scheduler) instead of one-shot merges.
	Chunked bool

	// Background runs a second decoupled client merging concurrently,
	// to exercise merge-scheduler admission and slot recycling. Only
	// set for chunked schedules with no MDS crash (so the driver's
	// recovery sequencing stays sequential).
	Background bool

	// Transport arms the message-fault interceptor (bounded drops,
	// delays, idempotent duplicates) on the MDS endpoint.
	Transport bool

	// WriteErrProb / TornProb / MaxWriteFaults arm the RADOS write-fault
	// injector over the client-journal pool (Global Persist targets).
	// Zero for cells that never persist globally.
	WriteErrProb   float64
	TornProb       float64
	MaxWriteFaults int

	// Faults is the crash schedule, sorted by time. Its times, like
	// MigrateAt's, count from the end of the driver's set-up.
	Faults []Fault

	// Migrate runs the schedule on a two-rank cluster with a migrator
	// proc exporting the main subtree back and forth at MigrateAt, so
	// crashes and storage faults strike mid-handoff. The ownership flip
	// must be invisible to every contract: the oracle is unchanged.
	Migrate bool
	// MigrateAt are the virtual times the migrator fires, drawn from the
	// same window as the crash schedule so the two overlap.
	MigrateAt []runtime.Time
	// TornCommit additionally arms the RADOS write-fault injector over
	// the migration-record pool, so some export-commit records tear; a
	// torn record must abort the migration with the source authoritative.
	TornCommit bool
}

// NewPlan derives a schedule from a seed. The generator draws from its
// own rand source; the simulation's engine stream is untouched. The cell
// is seed mod 15: cells 0-8 walk Table I (consistency fastest), 9-11 are
// speculative and 12-14 strong-eventual across the three durabilities.
func NewPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	n := int64(policy.NumConsistencies * policy.NumDurabilities)
	cell := int((seed%n + n) % n)
	p := &Plan{Seed: seed}
	if cell < 9 {
		p.Cons, p.Dur = policy.Consistency(cell%3), policy.Durability(cell/3)
	} else {
		p.Cons, p.Dur = policy.Consistency(cell/3), policy.Durability(cell%3)
	}
	p.Ops = 40 + rng.Intn(41)
	p.Chunked = rng.Float64() < 0.5
	p.Transport = rng.Float64() < 0.5
	if p.Dur == policy.DurGlobal {
		p.WriteErrProb = 0.5
		p.TornProb = 0.5
		p.MaxWriteFaults = 1 + rng.Intn(3)
	}
	mdsCrash := false
	for i, n := 0, rng.Intn(4); i < n; i++ {
		kind, target := FaultClientCrash, "client:main"
		if rng.Float64() < 0.4 {
			kind, target = FaultMDSCrash, "mds:0"
			mdsCrash = true
		}
		p.Faults = append(p.Faults, Fault{
			At:     runtime.Time(500e3 + rng.Int63n(8e6)),
			Kind:   kind,
			Target: target,
		})
	}
	sort.SliceStable(p.Faults, func(i, j int) bool {
		return p.Faults[i].At < p.Faults[j].At
	})
	p.Background = p.Chunked && !mdsCrash
	// Migration draws come after every other draw, so a seed's ops and
	// fault schedule do not depend on whether it migrates.
	p.Migrate = rng.Float64() < 0.25
	if p.Migrate {
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			p.MigrateAt = append(p.MigrateAt, runtime.Time(500e3+rng.Int63n(8e6)))
		}
		sort.SliceStable(p.MigrateAt, func(i, j int) bool {
			return p.MigrateAt[i] < p.MigrateAt[j]
		})
		p.TornCommit = rng.Float64() < 0.5
	}
	return p
}

// Cell names the plan's policy cell, e.g. "weak/global".
func (p *Plan) Cell() string { return p.Cons.String() + "/" + p.Dur.String() }

// String renders the plan for failure reports.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"seed=%d cell=%s ops=%d chunked=%v background=%v transport=%v "+
			"rados(err=%.2f torn=%.2f max=%d)\n",
		p.Seed, p.Cell(), p.Ops, p.Chunked, p.Background, p.Transport,
		p.WriteErrProb, p.TornProb, p.MaxWriteFaults)
	if len(p.Faults) == 0 {
		b.WriteString("fault plan: (empty)\n")
	} else {
		fmt.Fprintf(&b, "fault plan: %d faults\n", len(p.Faults))
	}
	for i, f := range p.Faults {
		fmt.Fprintf(&b, "  [%d] t=%dns %s %s\n", i, int64(f.At), f.Kind, f.Target)
	}
	if p.Migrate {
		fmt.Fprintf(&b, "migrate: at=%v torn-commit=%v\n", p.MigrateAt, p.TornCommit)
	}
	return b.String()
}

// Result is one schedule's verdict.
type Result struct {
	Seed        int64
	Cell        string
	Ops         int
	CrashFaults int
	WriteFaults int // RADOS write faults that actually fired
	Merges      int
	Migrations  int // subtree migrations that committed (aborts excluded)
	VirtualSec  float64
	Violations  []string
	PlanText    string

	// FlightDump is the schedule's trace's tail (trace.Recorder.Dump):
	// each daemon's last spans and points — RPCs with their client and
	// route, faults, crashes, handoff phases — captured only for failed
	// schedules so a `-chaos 1 -seed <seed>` report shows what led up to
	// the breakage.
	FlightDump string
}

// Passed reports whether every contract and invariant held.
func (r Result) Passed() bool { return len(r.Violations) == 0 }

// maxViolations bounds how many violations one schedule records; a
// single root cause often cascades, and the first few entries carry the
// signal.
const maxViolations = 16

// ReplayCommand is the command line that reproduces the schedule.
func (r Result) ReplayCommand() string {
	return fmt.Sprintf("cudele-bench -chaos 1 -seed %d", r.Seed)
}

// Run executes one chaos schedule and returns its verdict. Everything —
// cluster, engine, rand sources, oracle — is built fresh from the seed,
// so concurrent Runs never share state.
func Run(seed int64) Result { return newDriver(NewPlan(seed)).run() }

// RunMany executes the schedule of every seed on runtime.Parallel's pool
// and returns results in seed order. Each schedule is an independent
// simulation, so the verdicts are byte-identical at any GOMAXPROCS.
func RunMany(seeds []int64) []Result {
	return runtime.Parallel(len(seeds), func(i int) Result { return Run(seeds[i]) })
}

// Seeds returns n consecutive seeds starting at base — the harness
// default, walking all fifteen policy cells every fifteen seeds.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Report writes the per-seed verdict table, then a reproduction block
// (fault plan, violations, replay command) for every failure. It
// returns the number of failed schedules.
func Report(w io.Writer, results []Result) int {
	cw := len("cell")
	for _, r := range results {
		cw = max(cw, len(r.Cell))
	}
	fmt.Fprintf(w, "%-8s %-*s %4s %6s %6s %6s %4s %9s  %s\n",
		"seed", cw, "cell", "ops", "crash", "io", "merge", "mig", "virt(s)", "verdict")
	failed := 0
	for _, r := range results {
		verdict := "ok"
		if !r.Passed() {
			verdict = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
			failed++
		}
		fmt.Fprintf(w, "%-8d %-*s %4d %6d %6d %6d %4d %9.4f  %s\n",
			r.Seed, cw, r.Cell, r.Ops, r.CrashFaults, r.WriteFaults, r.Merges,
			r.Migrations, r.VirtualSec, verdict)
	}
	for _, r := range results {
		if r.Passed() {
			continue
		}
		fmt.Fprintf(w, "\nseed %d FAILED — %s\n", r.Seed, r.PlanText)
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  violation: %s\n", v)
		}
		if r.FlightDump != "" {
			fmt.Fprintf(w, "  flight recorder (last events before the violation):\n")
			for _, line := range strings.Split(strings.TrimRight(r.FlightDump, "\n"), "\n") {
				fmt.Fprintf(w, "    %s\n", line)
			}
		}
		fmt.Fprintf(w, "  reproduce: %s\n", r.ReplayCommand())
	}
	if failed == 0 {
		fmt.Fprintf(w, "chaos: %d/%d schedules passed\n", len(results), len(results))
	} else {
		fmt.Fprintf(w, "chaos: %d/%d schedules FAILED\n", failed, len(results))
	}
	return failed
}
