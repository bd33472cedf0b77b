package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRecorderConcurrentRecording records spans and points from many
// goroutines at once — the shape the real execution backend produces —
// and checks nothing is dropped and each track's tail dumps in the order
// its goroutine recorded it. Run with -race to prove the locking.
func TestRecorderConcurrentRecording(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			proc := fmt.Sprintf("proc.%d", w)
			for i := 0; i < perWorker; i++ {
				id := r.Begin(Time(i), proc, "cat", "op")
				r.End(id, Time(i+1))
				r.Record(Time(i), proc, "cat", "event", fmt.Sprintf("i=%d", i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := r.Len(), workers*perWorker; got != want {
		t.Fatalf("spans = %d, want %d", got, want)
	}
	if got, want := len(r.Instants()), workers*perWorker; got != want {
		t.Fatalf("instants = %d, want %d", got, want)
	}
	for _, s := range r.Spans() {
		if s.Open() {
			t.Fatalf("span left open: %+v", s)
		}
	}
	dump := r.Dump(2)
	for w := 0; w < workers; w++ {
		want := fmt.Sprintf("[proc.%d]\n  t=499ns        cat op [1ns]\n  t=499ns        cat event i=499\n", w)
		if !strings.Contains(dump, want) {
			t.Fatalf("dump lacks %q:\n%s", want, dump)
		}
	}
}

// TestRecorderExportWhileRecording exports a Chrome trace while other
// goroutines are still appending; the export must be internally
// consistent (valid JSON from a stable snapshot) and race-free.
func TestRecorderExportWhileRecording(t *testing.T) {
	r := New()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			r.Add(Time(i), Time(i+1), "p", "c", "op")
		}
		close(done)
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var buf bytes.Buffer
				if err := r.WriteChrome(&buf); err != nil {
					t.Errorf("WriteChrome: %v", err)
					return
				}
				_ = r.Dump(8)
			}
		}()
	}
	wg.Wait()
}
