package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a log-scale latency histogram with quarter-octave buckets:
// bucket i counts samples in [2^(i/4), 2^((i+1)/4)) microseconds, giving
// ~19% relative resolution. It is cheap enough to sit on every client's
// RPC path and supports approximate quantiles (upper bucket bounds),
// which is what the tail-latency reporting in the benchmarks uses.
//
// All methods are safe for concurrent use: the real execution backend
// runs clients as goroutines that observe latencies in parallel, so
// every field is manipulated with sync/atomic operations. Plain uint64
// fields with atomic functions (rather than atomic.Uint64 values) keep
// the struct trivially copyable by value when quiesced, which is how the
// bench harness embeds and snapshots it. Readers that combine several
// fields (Mean, Quantile, String, Merge) are individually race-free but
// see a possibly-inconsistent snapshot if samples arrive mid-read; call
// them after the run quiesces for exact numbers.
type Histogram struct {
	counts [160]uint64 // 2^40 us ~= 12.7 days, plenty
	total  uint64
	sum    int64 // nanoseconds
	max    int64 // nanoseconds
}

// subBuckets is the number of buckets per power of two.
const subBuckets = 4

// numBuckets is the histogram's bucket count; the top bucket also holds
// every sample beyond its nominal upper edge.
const numBuckets = len(Histogram{}.counts)

// log2Bucket is the bucket of us >= 1 microseconds by definition:
// floor(log2(us) * subBuckets), clamped to the top bucket.
func log2Bucket(us int64) int {
	return min(int(math.Log2(float64(us))*subBuckets), numBuckets-1)
}

// bucketStart[i] is the first whole microsecond log2Bucket puts in bucket
// i, computed once from that definition so the integer search in bucketOf
// gives the same bucket for every sample.
var bucketStart = func() (start [numBuckets]int64) {
	for i := 1; i < numBuckets; i++ {
		us := int64(math.Exp2(float64(i) / subBuckets))
		for us > 1 && log2Bucket(us-1) >= i {
			us--
		}
		for log2Bucket(us) < i {
			us++
		}
		start[i] = us
	}
	return start
}()

// bucketOf is log2Bucket of d's whole microseconds (bucket 0 below one)
// without a logarithm: a sample in [2^k, 2^(k+1)) us lies in one of the
// subBuckets buckets from k*subBuckets, and bucketStart picks which.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := (bits.Len64(uint64(us)) - 1) * subBuckets
	if b >= numBuckets-1 {
		return numBuckets - 1
	}
	for b < numBuckets-1 && us >= bucketStart[b+1] {
		b++
	}
	return b
}

// bucketUpper returns the upper bound of bucket i in microseconds.
func bucketUpper(i int) time.Duration {
	us := math.Exp2(float64(i+1) / subBuckets)
	return time.Duration(us * float64(time.Microsecond))
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	atomic.AddUint64(&h.counts[bucketOf(d)], 1)
	atomic.AddUint64(&h.total, 1)
	atomic.AddInt64(&h.sum, int64(d))
	for {
		cur := atomic.LoadInt64(&h.max)
		if int64(d) <= cur || atomic.CompareAndSwapInt64(&h.max, cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return atomic.LoadUint64(&h.total) }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(atomic.LoadInt64(&h.sum)) }

// Mean returns the mean sample.
func (h *Histogram) Mean() time.Duration {
	total := atomic.LoadUint64(&h.total)
	if total == 0 {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&h.sum)) / time.Duration(total)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return time.Duration(atomic.LoadInt64(&h.max)) }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// upper edge of the bucket containing it.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := atomic.LoadUint64(&h.total)
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	max := time.Duration(atomic.LoadInt64(&h.max))
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += atomic.LoadUint64(&h.counts[i])
		if seen >= target {
			if i == len(h.counts)-1 {
				// The top bucket absorbs samples clamped from beyond its
				// nominal edge, so that edge is not an upper bound; the
				// true max is the only honest answer.
				return max
			}
			upper := bucketUpper(i)
			if upper > max && max > 0 {
				return max
			}
			return upper
		}
	}
	return max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.counts {
		if c := atomic.LoadUint64(&other.counts[i]); c != 0 {
			atomic.AddUint64(&h.counts[i], c)
		}
	}
	atomic.AddUint64(&h.total, atomic.LoadUint64(&other.total))
	atomic.AddInt64(&h.sum, atomic.LoadInt64(&other.sum))
	om := atomic.LoadInt64(&other.max)
	for {
		cur := atomic.LoadInt64(&h.max)
		if om <= cur || atomic.CompareAndSwapInt64(&h.max, cur, om) {
			break
		}
	}
}
