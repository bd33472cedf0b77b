package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// chromeDoc mirrors the Chrome trace-event JSON schema for parsing.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

// tinyOpts is the scale the non-perturbation tests sweep every table at.
var tinyOpts = Options{Scale: 0.002, Seed: 1, Workers: 2}

// plainTables renders every experiment once with observation off, for
// the observed sweeps to compare against.
var plainTables = sync.OnceValues(func() (map[string]string, error) {
	out := make(map[string]string)
	for _, id := range IDs() {
		r, err := Run(id, tinyOpts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out[id] = r.Render()
	}
	return out, nil
})

// TestTracingDoesNotPerturb is the tentpole invariant: observation must
// not change the simulation. Every experiment, same seed, same scale,
// must render a byte-identical table whether or not a sink is attached —
// tracing charges no virtual time and consumes no randomness — and every
// experiment that builds a cluster must register its runs with the sink.
// The traced fig3a must also actually observe something: a parseable
// Chrome trace with spans from at least the transport, journal, and rados
// subsystems, and a metrics dump that includes MDS CPU utilization.
func TestTracingDoesNotPerturb(t *testing.T) {
	plain, err := plainTables()
	if err != nil {
		t.Fatal(err)
	}
	var traced Options
	for _, id := range IDs() {
		opts := tinyOpts
		opts.Sink = NewSink()
		observed, err := Run(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if plain[id] != observed.Render() {
			t.Errorf("tracing perturbed %s:\n--- without sink ---\n%s\n--- with sink ---\n%s",
				id, plain[id], observed.Render())
		}
		// table1 compiles policies; it builds no cluster.
		if n := opts.Sink.Runs(); n == 0 && id != "table1" {
			t.Errorf("%s: sink registered no runs", id)
		}
		if id == "fig3a" {
			traced = opts
		}
	}

	// The trace must be valid Chrome trace-event JSON with spans from at
	// least three subsystems.
	var buf bytes.Buffer
	if err := traced.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	cats := traced.Sink.Merged().Cats()
	for _, want := range []string{"transport", "journal", "rados", "client"} {
		if cats[want] == 0 {
			t.Errorf("no %q spans recorded (have %v)", want, cats)
		}
	}

	// The metrics dump must include the MDS CPU utilization gauge, per
	// run, in Prometheus text format.
	var mb bytes.Buffer
	if err := traced.Sink.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	dump := mb.String()
	for _, want := range []string{
		"# TYPE cudele_mds_cpu_utilization gauge",
		`cudele_mds_cpu_utilization{daemon="mds.0",run="fig3a/run000"}`,
		"cudele_mds_requests_total",
		"cudele_rados_writes_total",
		"cudele_client_rpc_latency_seconds",
		// Migration, redirects and speculation are exported even while
		// zero, so a dashboard can tell "none happened" from "not wired".
		"cudele_mds_bounced_total",
		"cudele_mds_exports_total",
		"cudele_mds_imports_total",
		"cudele_mds_import_chunks_total",
		"cudele_mds_import_backpressure_total",
		"cudele_mds_merge_conflicts_total",
		"cudele_client_redirects_total",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
	// The object log's counters belong to an attached FileStore; the
	// simulator has none, and its export must not grow them.
	if strings.Contains(dump, "cudele_rados_log_") {
		t.Error("simulated run exports object-log metrics; they are for a cluster with a data dir")
	}
}

// TestSinkDeterministicAcrossWorkers pins the export side of the
// determinism contract: the merged trace and metrics dump are
// byte-identical whether the grid ran sequentially or on a worker pool,
// because exports sort runs by name and each run is itself
// deterministic.
func TestSinkDeterministicAcrossWorkers(t *testing.T) {
	exportAt := func(id string, workers int) (string, string) {
		opts := Options{Scale: 0.002, Seed: 1, Workers: workers, Sink: NewSink()}
		if _, err := Run(id, opts); err != nil {
			t.Fatal(err)
		}
		var tb, mb bytes.Buffer
		if err := opts.Sink.WriteChrome(&tb); err != nil {
			t.Fatal(err)
		}
		if err := opts.Sink.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.String(), mb.String()
	}
	for _, id := range []string{"multimds", "fig6a"} {
		seqTrace, seqMetrics := exportAt(id, 1)
		parTrace, parMetrics := exportAt(id, 4)
		if seqTrace != parTrace {
			t.Errorf("%s: trace JSON differs between sequential and parallel execution", id)
		}
		if seqMetrics != parMetrics {
			t.Errorf("%s: metrics dump differs between sequential and parallel execution", id)
		}
	}
}
