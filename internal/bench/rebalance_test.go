package bench

import (
	"strings"
	"testing"
)

// TestRebalanceConverges is the acceptance gate for the elastic
// balancer: starting from every subtree on rank 0, the final sampled
// imbalance must land under 1.5x of even, actual migrations must have
// committed, and the frozen control must still show the full skew.
func TestRebalanceConverges(t *testing.T) {
	r, err := Run("rebalance", Options{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no balancer samples")
	}
	last := r.Rows[len(r.Rows)-1]
	if imb := cell(t, last[2]); imb >= 1.5 {
		t.Errorf("final imbalance = %.3f, want < 1.5\n%s", imb, r.Render())
	}
	if moves := cell(t, last[4]); moves == 0 {
		t.Errorf("no subtree migrations committed\n%s", r.Render())
	}
	// The frozen control keeps the full 4.00x skew (all load on one of
	// four ranks); the note carries it.
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "frozen control") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing frozen-control note:\n%s", r.Render())
	}
}

// TestRebalanceDeterministic asserts the experiment — whose table
// embeds the balancer's own sampled loads — renders byte-identically
// across runs and GOMAXPROCS values.
func TestRebalanceDeterministic(t *testing.T) {
	withProcs(t, 1)
	a, err := Run("rebalance", Options{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 2)
	b, err := Run("rebalance", Options{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("rebalance not deterministic:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			a.Render(), b.Render())
	}
}
