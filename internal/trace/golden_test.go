package trace

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cudele/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenRegistry builds a fixture registry covering every sample kind and
// the Append merge path. perm registers multi-label series with their
// labels permuted; the rendered text must not depend on it.
func goldenRegistry(perm bool) *Registry {
	kv := func(a, b KV) []KV {
		if perm {
			return []KV{b, a}
		}
		return []KV{a, b}
	}
	h := &stats.Histogram{}
	for i := 0; i < 50; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}

	run := NewRegistry()
	run.Counter("cudele_mds_requests_total", "Requests served.", 120,
		kv(KV{"daemon", "mds.0"}, KV{"op", "create"})...)
	run.Counter("cudele_mds_requests_total", "Requests served.", 30,
		kv(KV{"daemon", "mds.1"}, KV{"op", "mkdir"})...)
	run.Gauge("cudele_mds_cpu_utilization", "Busy fraction.", 0.75, KV{"daemon", "mds.0"})
	run.Histogram("cudele_client_rpc_latency_seconds", "RPC round trips.", h,
		kv(KV{"daemon", "client.0"}, KV{"op", "create"})...)

	all := NewRegistry()
	all.Append(run, KV{"run", "golden/run00"})
	all.Counter("cudele_bench_runs_total", "Runs merged.", 1)
	return all
}

// TestPrometheusGolden pins the exact Prometheus text exposition bytes,
// and asserts label-permuted registrations render identically — the
// determinism the live /metrics endpoint and CI artifact diffs rely on.
func TestPrometheusGolden(t *testing.T) {
	got := prometheusString(goldenRegistry(false))
	if permuted := prometheusString(goldenRegistry(true)); permuted != got {
		t.Fatalf("label permutation changed the rendered text:\n--- in order ---\n%s\n--- permuted ---\n%s", got, permuted)
	}

	path := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with go test -run TestPrometheusGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("prometheus text drifted from %s (regenerate with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
