package bench

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cudele"
	"cudele/internal/trace"
)

// TestSessionReapsFailedRun drives a run whose client task fails partway:
// the first task error must come back unwrapped (a leak would be appended
// to it), the other clients must have drained rather than been abandoned,
// and the sink must still hold the run's trace and metrics — a failed run
// is the one an operator most wants to look at.
func TestSessionReapsFailedRun(t *testing.T) {
	boom := errors.New("client.1 gave up")
	sink := NewSink(true)
	made, err := runSession(Options{Sink: sink}, runSpec{name: "t/failed", seed: 1}, func(s *session) (int, error) {
		made := 0
		cs := s.clients(3)
		_, err := s.phase("setup", func(p cudele.Proc) error {
			s.each(cs, func(cp cudele.Proc, i int, c *cudele.Client) error {
				if _, err := c.Mkdir(cp, cudele.RootIno, c.Name(), 0755); err != nil {
					return err
				}
				if i == 1 {
					return boom
				}
				made++
				return nil
			})
			return nil
		})
		return made, err
	})
	if err != boom {
		t.Fatalf("err = %v, want exactly %v", err, boom)
	}
	if made != 2 {
		t.Errorf("%d of the healthy clients finished, want 2", made)
	}
	if len(sink.runs) != 1 {
		t.Fatalf("sink holds %d runs, want the failed one", len(sink.runs))
	}
	var mb bytes.Buffer
	if err := sink.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mb.String(), `run="t/failed"`) {
		t.Error("the failed run's metrics were not pulled")
	}
	if !slices.ContainsFunc(sink.recs["t/failed"].Spans(), func(s trace.Span) bool { return s.Cat == "client" }) {
		t.Error("the failed run's trace holds no client spans")
	}
}

// TestSessionReportsLeakBesideError parks a task forever next to a failing
// one: the run's own error stays first and the leaked task is named beside
// it.
func TestSessionReportsLeakBesideError(t *testing.T) {
	boom := errors.New("boom")
	_, err := runSession(Options{}, runSpec{seed: 1}, func(s *session) (struct{}, error) {
		s.spawn("parked", func(p cudele.Proc) error {
			s.cl.Runtime().NewSignal().Wait(p)
			return nil
		})
		_, err := s.phase("failing", func(cudele.Proc) error { return boom })
		return struct{}{}, err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap %v", err, boom)
	}
	if !strings.Contains(err.Error(), "parked") {
		t.Errorf("err = %v, want the leaked task named", err)
	}
}

// TestRealSessionOwnsDataDir: a real-backend run keeps its fsynced object
// log in a data dir of its own, which exists while the body runs, feeds
// the run's object-log export, and is gone once the session returns.
func TestRealSessionOwnsDataDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	sink := NewSink(false)
	spec := runSpec{name: "t/real", seed: 1, backend: cudele.BackendReal}
	_, err := runSession(Options{Sink: sink}, spec, func(s *session) (struct{}, error) {
		if dirs, _ := filepath.Glob(filepath.Join(tmp, "*", "objects")); len(dirs) != 1 {
			return struct{}{}, fmt.Errorf("object logs under TMPDIR while the run executes: %v, want one", dirs)
		}
		c := s.clients(1)[0]
		_, err := s.phase("create", func(p cudele.Proc) error {
			_, err := c.Create(p, cudele.RootIno, "f", 0644)
			return err
		})
		return struct{}{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("TMPDIR holds %d entries after the session, want the data dir removed", len(left))
	}
	var mb bytes.Buffer
	if err := sink.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mb.String(), `cudele_rados_log_records_total{run="t/real"}`) {
		t.Error("the real run's export carries no object-log counters")
	}
}
