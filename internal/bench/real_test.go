package bench

import (
	"bytes"
	"strings"
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

// TestFig3aRealSmoke runs the side-by-side fig3a at the smallest
// meaningful scale — the CI real-backend smoke. It asserts shape and
// sanity (positive timings), not absolute latency: real measurements
// are machine-dependent by design.
func TestFig3aRealSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-backend smoke takes wall-clock seconds")
	}
	opts := Options{Scale: 0.001, Seed: 1, DataDir: t.TempDir(), Sink: NewSink()}
	res, err := RunReal("fig3a", opts)
	if err != nil {
		t.Fatal(err)
	}
	// The measured runs have a data dir, so their export carries the
	// object log's counters; the simulated predictions beside them do not.
	var mb bytes.Buffer
	if err := opts.Sink.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	dump := mb.String()
	for _, name := range []string{
		"cudele_rados_log_records_total", "cudele_rados_log_commits_total", "cudele_rados_log_bytes_total",
		"cudele_rados_log_checkpoints_total", "cudele_rados_log_size_bytes",
	} {
		if !strings.Contains(dump, name+`{run="fig3a-real/real/`) {
			t.Errorf("metrics dump of the real runs is missing %s", name)
		}
		if strings.Contains(dump, name+`{run="fig3a-real/sim/`) {
			t.Errorf("a simulated prediction exports %s", name)
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
