package stats

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; run with -race it proves the atomic paths, and the final
// totals prove no increment was lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*perWorker+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	wantMax := time.Duration(workers*perWorker-1) * time.Microsecond
	if h.Max() != wantMax {
		t.Fatalf("max = %v, want %v", h.Max(), wantMax)
	}
	var wantSum time.Duration
	for i := 0; i < workers*perWorker; i++ {
		wantSum += time.Duration(i) * time.Microsecond
	}
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramConcurrentReaders observes from one goroutine while
// others read every accessor; -race verifies no torn reads.
func TestHistogramConcurrentReaders(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
		close(done)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = h.Count()
				_ = h.Mean()
				_ = h.Quantile(0.99)
				_ = h.Max()
			}
		}()
	}
	wg.Wait()
}

// TestHistogramConcurrentMerge merges shards into a sink concurrently
// and checks nothing is lost.
func TestHistogramConcurrentMerge(t *testing.T) {
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = new(Histogram)
		for j := 0; j < 100; j++ {
			shards[i].Observe(time.Duration(j) * time.Millisecond)
		}
	}
	var sink Histogram
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *Histogram) {
			defer wg.Done()
			sink.Merge(sh)
		}(sh)
	}
	wg.Wait()
	if got, want := sink.Count(), uint64(400); got != want {
		t.Fatalf("merged count = %d, want %d", got, want)
	}
	if got, want := sink.Max(), 99*time.Millisecond; got != want {
		t.Fatalf("merged max = %v, want %v", got, want)
	}
}
