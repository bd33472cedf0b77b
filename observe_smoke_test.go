package cudele

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"cudele/internal/obs"
)

// TestBackendSmokeObservability drives the full live observability plane
// on the real backend: heat accounting on, the admin endpoint serving,
// and a scraper goroutine hitting /heat and /metrics concurrently with
// the running workload (under -race in CI, this is the Exclusive-vs-task
// safety test). Afterwards the live /heat document must match the
// cluster's own post-run heat report.
func TestBackendSmokeObservability(t *testing.T) {
	cl := NewCluster(WithSeed(7), WithBackend(BackendReal))
	defer cl.Close()
	cl.EnableHeat(time.Minute) // long half-life: decay negligible over the run
	admin, err := cl.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr()

	fetch := func(path string) (int, []byte) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, body := fetch("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// Scrape concurrently with the workload.
	done := make(chan struct{})
	scraped := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scraped <- n
				return
			default:
			}
			if code, _ := fetch("/heat"); code == 200 {
				n++
			}
			if code, _ := fetch("/metrics"); code == 200 {
				n++
			}
		}
	}()

	c := cl.NewClient("c0")
	cl.Run(func(p Proc) {
		dir, err := c.MkdirAll(p, "/hot/a", 0755)
		if err != nil {
			t.Errorf("mkdirall: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			if _, err := c.Create(p, dir, fmt.Sprintf("f.%02d", i), 0644); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
	})
	close(done)
	if n := <-scraped; n == 0 {
		t.Error("no successful scrapes while the workload ran")
	}

	// The live /heat document must match the cluster's post-run report:
	// same cells, loads within the sliver of decay between the two reads.
	code, body := fetch("/heat")
	if code != 200 {
		t.Fatalf("/heat = %d", code)
	}
	var live obs.HeatReport
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatalf("/heat does not parse: %v\n%s", err, body)
	}
	local := cl.HeatReport()
	if len(live.Cells) == 0 || len(live.Cells) != len(local.Cells) {
		t.Fatalf("live /heat has %d cells, local report %d", len(live.Cells), len(local.Cells))
	}
	for i := range live.Cells {
		lv, lc := live.Cells[i], local.Cells[i]
		if lv.Subtree != lc.Subtree || lv.Rank != lc.Rank {
			t.Errorf("cell %d: live (%s,%d) vs local (%s,%d)", i, lv.Subtree, lv.Rank, lc.Subtree, lc.Rank)
			continue
		}
		if lc.Load > 0 && math.Abs(lv.Load-lc.Load)/lc.Load > 0.02 {
			t.Errorf("cell (%s,%d): live load %.2f vs local %.2f (> 2%% apart)",
				lv.Subtree, lv.Rank, lv.Load, lc.Load)
		}
	}
	if live.Imbalance <= 0 {
		t.Errorf("live imbalance = %g, want > 0", live.Imbalance)
	}

	code, body = fetch("/metrics")
	if code != 200 || len(body) == 0 {
		t.Errorf("post-run /metrics = %d with %d bytes", code, len(body))
	}
	// The engine's wait counters need no option: a real run always has them.
	for _, name := range []string{"cudele_realrt_parks_total", "cudele_realrt_parks_blocked_total"} {
		if !bytes.Contains(body, []byte("\n"+name+" ")) {
			t.Errorf("/metrics on the real backend has no %s sample", name)
		}
	}
}

// TestNewClientWhileScraping creates clients while the admin endpoint is
// being scraped. NewClient is set-up code that holds no lock domain — it
// opens the client's session on every rank from outside task context — and
// a scrape is not a task, so nothing ordered the two until set-up code and
// scrapes took the cluster's set-up lock (run under -race -count=20: at the
// parent of that change, about one run in ten of the smoke test above
// reported the session map written by one and read by the other).
func TestNewClientWhileScraping(t *testing.T) {
	cl := NewCluster(WithSeed(7), WithBackend(BackendReal), WithMDSRanks(2))
	defer cl.Close()
	admin, err := cl.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		defer func() { scraped <- n }()
		for {
			for _, path := range []string{"/metrics", "/heat"} {
				resp, err := http.Get("http://" + admin.Addr() + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				n++
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	cl.EnableHeat(time.Minute) // after ServeAdmin: /heat reads what this writes
	for i := 0; i < 50; i++ {
		cl.NewClient(fmt.Sprintf("c%02d", i))
	}
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("no scrape completed")
	}
	if got := cl.MDS().Sessions(); got != 50 {
		t.Errorf("rank 0 has %d sessions, want 50", got)
	}
}
