package mds

import (
	"errors"
	"fmt"
	"testing"

	"cudele/internal/namespace"
	"cudele/internal/obs"
	"cudele/internal/policy"
	"cudele/internal/runtime"
)

// TestServeRPCSchedule pins what one RPC costs and counts on each exit of
// the request pipeline. The golden strings were recorded from the
// interceptor-chain pipeline (admission, accounting, journaling,
// execution, interference, dispatchOp) that serveRPC replaced, on the
// same seed: a sleep, CPU acquisition, random draw or counter that moved
// shows here before it shows in a results/ table.
func TestServeRPCSchedule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(p runtime.Task, s *Server) *Request
		err   error
		want  string
	}{
		{
			name: "stopped rank",
			setup: func(p runtime.Task, s *Server) *Request {
				s.Shutdown()
				return &Request{Op: OpCreate, Client: "c1", Parent: namespace.RootIno, Name: "f"}
			},
			err:  ErrShutdown,
			want: "elapsed=100µs requests=0 byop=0 rejected=0 journaled=0 acquires=0",
		},
		{
			name: "blocked subtree",
			setup: func(p runtime.Task, s *Server) *Request {
				mk := s.Submit(p, &Request{Op: OpMkdir, Client: "c0", Parent: namespace.RootIno, Name: "d"})
				pol := &policy.Policy{Consistency: policy.ConsWeak, Interfere: policy.InterfereBlock, AllocatedInodes: 10}
				if _, _, err := s.Decouple(p, "/d", pol, "c0"); mk.Err != nil || err != nil {
					t.Fatalf("setup: mkdir %v, decouple %v", mk.Err, err)
				}
				return &Request{Op: OpCreate, Client: "c1", Parent: mk.Ino, Name: "f"}
			},
			err:  namespace.ErrBusy,
			want: "elapsed=728.709µs requests=1 byop=1 rejected=1 journaled=0 acquires=1",
		},
		{
			name: "unknown op",
			setup: func(p runtime.Task, s *Server) *Request {
				return &Request{Op: opMax + 3, Client: "c1", Parent: namespace.RootIno, Name: "f"}
			},
			err:  namespace.ErrInval,
			want: "elapsed=435.927µs requests=1 byop=0 rejected=0 journaled=0 acquires=1",
		},
		{
			name: "journaled create",
			setup: func(p runtime.Task, s *Server) *Request {
				s.SetStream(true)
				return &Request{Op: OpCreate, Client: "c1", Parent: namespace.RootIno, Name: "f"}
			},
			want: "elapsed=727.927µs requests=1 byop=1 rejected=0 journaled=1 acquires=2",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, s := newTestServer()
			s.OpenSession("c0")
			s.OpenSession("c1")
			run(t, eng, func(p runtime.Task) {
				req := tc.setup(p, s)
				m0, a0, t0 := s.Metrics(), s.CPU().Snapshot().Acquires, p.Now()
				r := s.Submit(p, req)
				m1 := s.Metrics()
				if !errors.Is(r.Err, tc.err) {
					t.Errorf("reply error = %v, want %v", r.Err, tc.err)
				}
				byOp := uint64(0)
				if req.Op < opMax {
					byOp = m1.ByOp[req.Op] - m0.ByOp[req.Op]
				}
				got := fmt.Sprintf("elapsed=%v requests=%d byop=%d rejected=%d journaled=%d acquires=%d",
					runtime.Duration(p.Now()-t0), m1.Requests-m0.Requests, byOp,
					m1.Rejected-m0.Rejected, m1.Journaled-m0.Journaled, s.CPU().Snapshot().Acquires-a0)
				if got != tc.want {
					t.Errorf("pipeline moved:\n got %s\nwant %s", got, tc.want)
				}
			})
		})
	}
}

// clockCounter is a task that counts the reads of its clock (the client
// package's tests have the same one).
type clockCounter struct {
	runtime.Task
	reads int
}

func (c *clockCounter) Now() runtime.Time {
	c.reads++
	return c.Task.Now()
}

// countedCPU lets a clockCounter through the rank's CPU, whose queueing
// calls take only the backend's own task type.
type countedCPU struct{ runtime.Resource }

func (r countedCPU) Acquire(t runtime.Task) { r.Resource.Acquire(t.(*clockCounter).Task) }

// TestServeRPCReadsClockOnlyForHeat: the arrival time is the heat
// plane's queue-wait measurement and nobody else's, so with heat off one
// RPC reads the task's clock not at all (on the real backend each read is
// a time.Since on the rank's serial path), and with heat on twice —
// arrival, and one reading after the CPU is granted that stamps the
// record and ends the wait.
func TestServeRPCReadsClockOnlyForHeat(t *testing.T) {
	eng, s := newTestServer()
	s.OpenSession("c0")
	s.cpu = countedCPU{s.cpu}
	run(t, eng, func(p runtime.Task) {
		counted := &clockCounter{Task: p}
		req := &Request{Op: OpLookup, Client: "c0", Parent: namespace.RootIno, Name: "nope"}
		if r := s.serveRPC(counted, req); !errors.Is(r.Err, namespace.ErrNotExist) || counted.reads != 0 {
			t.Errorf("heat off: serveRPC read the clock %d times (reply error %v), want 0", counted.reads, r.Err)
		}
		heat := obs.NewHeat(0)
		s.SetHeat(heat, nil)
		if r := s.serveRPC(counted, req); !errors.Is(r.Err, namespace.ErrNotExist) || counted.reads != 2 {
			t.Errorf("heat on: serveRPC read the clock %d times (reply error %v), want 2", counted.reads, r.Err)
		}
		if cells := heat.Snapshot(int64(p.Now())); len(cells) != 1 || cells[0].Reads == 0 || cells[0].WaitSeconds != 0 {
			t.Errorf("heat on: cells = %+v, want one cell with the read and no queue wait", cells)
		}
	})
}
