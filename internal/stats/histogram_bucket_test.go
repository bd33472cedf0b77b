package stats

import (
	"math"
	"testing"
	"time"
)

// bucketByLog2 is the bucket formula bucketOf replaced: quarter-octave
// buckets from the floating-point logarithm, clamped to the table.
func bucketByLog2(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := int(math.Log2(float64(us)) * subBuckets)
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// TestBucketOfMatchesLog2 checks the integer bucket search against the
// logarithm it replaced: for every whole microsecond below 2^22, at one
// microsecond either side of every bucket's first value up to the top
// bucket, at sub-microsecond remainders, and far beyond the top.
func TestBucketOfMatchesLog2(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := bucketOf(d), bucketByLog2(d); got != want {
			t.Fatalf("bucketOf(%d ns) = %d, log2 formula %d", int64(d), got, want)
		}
	}
	for us := int64(0); us < 1<<22; us++ {
		check(time.Duration(us) * time.Microsecond)
	}
	for i := 1; i < numBuckets; i++ {
		edge := bucketStart[i]
		for _, us := range []int64{edge - 1, edge, edge + 1} {
			check(time.Duration(us) * time.Microsecond)
			check(time.Duration(us)*time.Microsecond + 999)
		}
	}
	for _, d := range []time.Duration{-1, 0, 999, 1000, 1 << 50, 1<<62 + 12345, math.MaxInt64} {
		check(d)
	}
	if bucketStart[numBuckets-1] <= bucketStart[numBuckets-2] || bucketStart[1] != 2 {
		t.Fatalf("bucket starts %d..%d, want increasing from 2", bucketStart[1], bucketStart[numBuckets-1])
	}
}

// BenchmarkHistogramObserve is the host benchmark's stats.observe_ns row:
// one sample per call, spread over the low buckets.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
