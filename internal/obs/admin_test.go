package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cudele/internal/trace"
)

// fakeSource is a test Source with canned registry and heat data.
type fakeSource struct {
	heatErr error
	scrapes int
}

func (s *fakeSource) Metrics() (*trace.Registry, error) {
	s.scrapes++
	reg := trace.NewRegistry()
	reg.Counter("cudele_test_scrapes_total", "Scrapes served.", float64(s.scrapes))
	return reg, nil
}

func (s *fakeSource) Heat() (HeatReport, error) {
	if s.heatErr != nil {
		return HeatReport{}, s.heatErr
	}
	return NewReport([]HeatCell{{Subtree: "/job0", Rank: 0, Writes: 10, Load: 10}}, 1), nil
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpoints drives a real listener: healthz up, the data
// endpoints serving the source, metrics freshly collected per scrape.
func TestAdminEndpoints(t *testing.T) {
	src := &fakeSource{}
	a, err := NewAdmin("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	base := "http://" + a.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get(t, base+"/metrics"); code != 200 || !strings.Contains(body, "cudele_test_scrapes_total 1") {
		t.Errorf("/metrics = %d %q, want scrape 1", code, body)
	}
	// Refreshable mid-run: the second scrape re-collects.
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, "cudele_test_scrapes_total 2") {
		t.Errorf("/metrics second scrape = %q, want scrape 2", body)
	}

	code, body := get(t, base+"/heat")
	if code != 200 {
		t.Fatalf("/heat = %d, want 200", code)
	}
	var rep HeatReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/heat does not parse: %v\n%s", err, body)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Subtree != "/job0" || rep.Imbalance != 1 {
		t.Errorf("/heat report = %+v, want one /job0 cell, imbalance 1", rep)
	}

	if code, body := get(t, base+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d, want 200 with content", code)
	}
}

// TestAdminSourceErrors asserts scrape errors surface as 500s rather
// than empty 200s.
func TestAdminSourceErrors(t *testing.T) {
	a, err := NewAdmin("127.0.0.1:0", &fakeSource{heatErr: errors.New("engine busy")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if code, body := get(t, "http://"+a.Addr()+"/heat"); code != 500 || !strings.Contains(body, "engine busy") {
		t.Errorf("/heat with failing source = %d %q, want 500 engine busy", code, body)
	}
}

// TestAdminCloseStopsServing asserts Close tears the listener down.
func TestAdminCloseStopsServing(t *testing.T) {
	a, err := NewAdmin("127.0.0.1:0", &fakeSource{})
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	client := http.Client{Timeout: 2 * time.Second}
	if resp, err := client.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		resp.Body.Close()
		t.Error("listener still serving after Close")
	}
}
