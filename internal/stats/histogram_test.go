package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: n=%d mean=%v p50=%v max=%v", h.Count(), h.Mean(), h.Quantile(0.5), h.Max())
	}
}

func TestHistogramBasic(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(100 * time.Millisecond) // one outlier
	if h.Count() != 101 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < time.Millisecond || p50 > 3*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1-2ms", p50)
	}
	p995 := h.Quantile(0.995)
	if p995 < 50*time.Millisecond {
		t.Fatalf("p99.5 = %v, want to catch the outlier", p995)
	}
	if mean := h.Mean(); mean < time.Millisecond || mean > 3*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("negative sample: n=%d max=%v", h.Count(), h.Max())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	if h.Quantile(-1) == 0 || h.Quantile(2) == 0 {
		t.Fatal("out-of-range quantiles returned zero")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(10 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 || a.Max() != 10*time.Millisecond {
		t.Fatalf("merged: n=%d max=%v", a.Count(), a.Max())
	}
}

// Property: quantiles are monotone in q, and p100 >= every sample's
// bucket floor while p0+ <= max.
func TestHistogramQuantileMonotoneQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 200; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(10 * time.Second))))
		}
		prev := time.Duration(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Quantile(1.0) >= h.Max()/2 // bucket granularity bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
