package bench

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRunRealUnsupported checks the error contract for experiments with
// no real-backend mode.
func TestRunRealUnsupported(t *testing.T) {
	if _, err := RunReal("fig2", Options{Scale: 0.01, Seed: 1}); err == nil {
		t.Fatal("RunReal(fig2) = nil error, want unsupported")
	} else if !strings.Contains(err.Error(), "fig3a") {
		t.Fatalf("error %q does not name the supported set", err)
	}
}

// realFig3a runs the side-by-side fig3a once for every test that reads
// it: the run takes wall-clock seconds.
var (
	realOnce    sync.Once
	realRes     *Result
	realRuns    int
	realMetrics string
	realTrace   []byte
	realErr     error
)

func realFig3a() (*Result, error) {
	realOnce.Do(func() {
		opts := Options{Scale: 0.001, Seed: 1, Sink: NewSink(true)}
		if realRes, realErr = RunReal("fig3a", opts); realErr != nil {
			return
		}
		realRuns = len(opts.Sink.runs)
		var mb, tb bytes.Buffer
		if realErr = opts.Sink.WriteMetrics(&mb); realErr != nil {
			return
		}
		realErr = opts.Sink.WriteChrome(&tb)
		realMetrics, realTrace = mb.String(), tb.Bytes()
	})
	return realRes, realErr
}

// TestFig3aRealSmoke runs the side-by-side fig3a at the smallest
// meaningful scale — the CI real-backend smoke. It asserts shape and
// sanity (positive timings), not absolute latency: real measurements
// are machine-dependent by design.
func TestFig3aRealSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-backend smoke takes wall-clock seconds")
	}
	res, err := realFig3a()
	if err != nil {
		t.Fatal(err)
	}
	// The measured runs (run009-run017) each own a data dir, so their
	// export carries the object log's counters; the simulated predictions
	// beside them (run000-run008) do not.
	points := len(realClientCounts) * 3
	for _, name := range []string{
		"cudele_rados_log_records_total", "cudele_rados_log_commits_total", "cudele_rados_log_bytes_total",
		"cudele_rados_log_checkpoints_total", "cudele_rados_log_size_bytes",
	} {
		for i := 0; i < 2*points; i++ {
			series := fmt.Sprintf(`%s{run="fig3a-real/run%03d"}`, name, i)
			if measured := i >= points; strings.Contains(realMetrics, series) != measured {
				t.Errorf("%s: exported %v, want %v (runs %03d-%03d are the measurements)",
					series, !measured, measured, points, 2*points-1)
			}
		}
	}
	if res.ID != "fig3a-real" {
		t.Fatalf("result id = %q", res.ID)
	}
	wantRows := len(realClientCounts) * 3
	if len(res.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(res.Rows), wantRows)
	}
	if len(res.Columns) != 5 {
		t.Fatalf("got %d columns, want 5 (clients, config, sim, real, ratio)", len(res.Columns))
	}
	for _, row := range res.Rows {
		if row[2] == "0.000" || row[3] == "0.000" {
			t.Fatalf("zero timing in row %v", row)
		}
	}
	t.Logf("\n%s", res.Render())
}
