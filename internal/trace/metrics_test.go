package trace

import (
	"strings"
	"testing"
	"time"

	"cudele/internal/stats"
)

func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cudele_mds_requests_total", "Requests served.", 42, KV{"daemon", "mds.0"})
	reg.Counter("cudele_mds_requests_total", "Requests served.", 7, KV{"daemon", "mds.1"})
	reg.Gauge("cudele_mds_cpu_utilization", "Busy fraction.", 0.625, KV{"daemon", "mds.0"})

	out := prometheusString(reg)
	for _, want := range []string{
		"# HELP cudele_mds_requests_total Requests served.",
		"# TYPE cudele_mds_requests_total counter",
		`cudele_mds_requests_total{daemon="mds.0"} 42`,
		`cudele_mds_requests_total{daemon="mds.1"} 7`,
		"# TYPE cudele_mds_cpu_utilization gauge",
		`cudele_mds_cpu_utilization{daemon="mds.0"} 0.625`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family, not per series.
	if strings.Count(out, "# TYPE cudele_mds_requests_total") != 1 {
		t.Fatalf("family header repeated:\n%s", out)
	}
}

func TestRegistryHistogramSummary(t *testing.T) {
	h := &stats.Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	reg := NewRegistry()
	reg.Histogram("cudele_client_rpc_latency_seconds", "RPC round trips.", h, KV{"daemon", "client.0"})
	out := prometheusString(reg)
	for _, want := range []string{
		"# TYPE cudele_client_rpc_latency_seconds summary",
		`cudele_client_rpc_latency_seconds{daemon="client.0",quantile="0.5"}`,
		`cudele_client_rpc_latency_seconds{daemon="client.0",quantile="1"}`,
		`cudele_client_rpc_latency_seconds_count{daemon="client.0"} 100`,
		`cudele_client_rpc_latency_seconds_sum{daemon="client.0"} 5.05`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryAppendAddsLabelsAndValueLookup(t *testing.T) {
	run := NewRegistry()
	run.Gauge("util", "u", 0.5, KV{"daemon", "mds.0"})
	all := NewRegistry()
	all.Append(run, KV{"run", "fig3a/003"})
	all.Append(nil)

	v, ok := all.Value("util", KV{"run", "fig3a/003"}, KV{"daemon", "mds.0"})
	if !ok || v != 0.5 {
		t.Fatalf("Value = %v,%v", v, ok)
	}
	// Label order in the query must not matter (signature is sorted).
	if _, ok := all.Value("util", KV{"daemon", "mds.0"}, KV{"run", "fig3a/003"}); !ok {
		t.Fatal("label order changed lookup result")
	}
	if !strings.Contains(prometheusString(all), `util{daemon="mds.0",run="fig3a/003"} 0.5`) {
		t.Fatalf("merged labels wrong:\n%s", prometheusString(all))
	}
}

func TestRegistryDeterministicAcrossFillOrder(t *testing.T) {
	build := func(flip bool) string {
		reg := NewRegistry()
		add := []func(){
			func() { reg.Counter("b_total", "b", 1, KV{"d", "x"}) },
			func() { reg.Counter("a_total", "a", 2, KV{"d", "y"}) },
			func() { reg.Counter("a_total", "a", 3, KV{"d", "x"}) },
		}
		if flip {
			for i := len(add) - 1; i >= 0; i-- {
				add[i]()
			}
		} else {
			for _, f := range add {
				f()
			}
		}
		return prometheusString(reg)
	}
	if a, b := build(false), build(true); a != b {
		t.Fatalf("fill order leaked into output:\n%s\n---\n%s", a, b)
	}
}

// prometheusString renders reg in the text exposition format.
func prometheusString(reg *Registry) string {
	var b strings.Builder
	_ = reg.WritePrometheus(&b)
	return b.String()
}
