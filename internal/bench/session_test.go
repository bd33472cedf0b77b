package bench

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cudele"
)

// TestSessionReapsFailedRun drives a run whose client task fails partway:
// the first task error must come back unwrapped (a leak would be appended
// to it), the other clients must have drained rather than been abandoned,
// and the sink must still hold the run's trace and metrics — a failed run
// is the one an operator most wants to look at.
func TestSessionReapsFailedRun(t *testing.T) {
	boom := errors.New("client.1 gave up")
	sink := NewSink()
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
	if sink.Runs() != 1 {
		t.Fatalf("sink holds %d runs, want the failed one", sink.Runs())
	}
	var mb bytes.Buffer
	if err := sink.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mb.String(), `run="t/failed"`) {
		t.Error("the failed run's metrics were not pulled")
	}
	if sink.Merged().Cats()["client"] == 0 {
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
