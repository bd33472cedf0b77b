package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty != 0")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("mean wrong")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("stddev of singleton != 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(got, 2) {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestSlowdown(t *testing.T) {
	if !almost(Slowdown(30, 10), 3) {
		t.Fatal("slowdown wrong")
	}
}

func TestSeriesRates(t *testing.T) {
	s := &Series{}
	s.Add(0, 0)
	s.Add(1, 100)
	s.Add(3, 500)
	r := s.Rates()
	if r.Len() != 2 {
		t.Fatalf("rates len = %d", r.Len())
	}
	if !almost(r.V[0], 100) || !almost(r.V[1], 200) {
		t.Fatalf("rates = %v", r.V)
	}
	// Degenerate: equal timestamps skipped.
	s.Add(3, 600)
	if s.Rates().Len() != 2 {
		t.Fatal("zero-dt interval not skipped")
	}
}

// Property: StdDev is translation-invariant and non-negative.
func TestStdDevQuick(t *testing.T) {
	f := func(vals []float64, shift float64) bool {
		if len(vals) < 2 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e12 {
			return true
		}
		a := StdDev(vals)
		shifted := make([]float64, len(vals))
		for i, v := range vals {
			shifted[i] = v + shift
		}
		b := StdDev(shifted)
		return a >= 0 && math.Abs(a-b) < 1e-3*(1+a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
