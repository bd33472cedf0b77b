package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestHeatSkewDeterministic asserts the heatskew experiment — whose
// table includes the decayed heat values themselves — renders
// byte-identically across runs: heat on simulated time is a pure
// function of the schedule.
func TestHeatSkewDeterministic(t *testing.T) {
	opts := Options{Scale: 0.002, Seed: 1}
	a, err := Run("heatskew", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("heatskew", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("heatskew not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a.Render(), b.Render())
	}
}

// TestHeatSkewExposesImbalance asserts the skewed placement actually
// shows up in the heat report: rank 0 (five subtrees) must carry the
// largest share and the imbalance factor must exceed 2 (5 of 8 subtrees
// on one of four ranks ≈ 2.5x even).
func TestHeatSkewExposesImbalance(t *testing.T) {
	opts := Options{Scale: 0.002, Seed: 1}
	out, err := heatSkewRun(opts, runSpec{seed: opts.Seed}, opts.scaled(20_000, 200), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.report.Imbalance < 2.0 {
		t.Errorf("imbalance = %.2f, want > 2.0 for placement %v", out.report.Imbalance, heatSkewPlacement)
	}
	shares := rankShares(out.report)
	for r := 1; r < heatSkewRanks; r++ {
		if shares[0] <= shares[r] {
			t.Errorf("rank 0 share %.3f not above rank %d share %.3f", shares[0], r, shares[r])
		}
	}
	// Heat shares must track raw request shares (half-life dwarfs run).
	var total uint64
	for _, n := range out.requests {
		total += n
	}
	for r := 0; r < heatSkewRanks; r++ {
		reqShare := float64(out.requests[r]) / float64(total)
		if diff := shares[r] - reqShare; diff > 0.02 || diff < -0.02 {
			t.Errorf("rank %d: heat share %.3f vs request share %.3f (off by %.3f)", r, shares[r], reqShare, diff)
		}
	}
}

// TestRealBackendSinkParity is the -trace/-metrics-under-real parity
// test: fig3a-real with a sink must register both the simulated prediction
// runs and the real measurement runs, with run-labeled metrics and a
// parseable merged trace — observation is backend-agnostic. It reads the
// real fig3a run that TestFig3aRealSmoke shares.
func TestRealBackendSinkParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real-backend runs take wall-clock seconds")
	}
	if _, err := realFig3a(); err != nil {
		t.Fatal(err)
	}
	if n := realRuns; n < 2*len(realClientCounts)*3 {
		t.Fatalf("sink registered %d runs, want %d (sim + real per grid point)",
			n, 2*len(realClientCounts)*3)
	}
	// Runs 000-008 are the predictions, 009-017 the measurements.
	for _, want := range []string{
		`run="fig3a-real/run000"`,
		`run="fig3a-real/run009"`,
		"cudele_mds_requests_total",
	} {
		if !strings.Contains(realMetrics, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
	var doc chromeDoc
	if err := json.Unmarshal(realTrace, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events from real-backend runs")
	}
}
