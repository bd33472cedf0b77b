package mds

import (
	"reflect"
	"testing"
	"time"

	"cudele/internal/namespace"
	"cudele/internal/runtime"
	"cudele/internal/trace"
	"cudele/internal/transport"
)

// probeMsg is a message whose handler takes work of virtual time and
// whose label reports that it was asked for.
type probeMsg struct {
	to      string
	work    runtime.Duration
	labeled bool
}

func (m *probeMsg) label() string { m.labeled = true; return "probe" }
func (m *probeMsg) route() string { return m.to }
func (m *probeMsg) serve(s *Server, p runtime.Task) any {
	p.Sleep(m.work)
	return s.rank
}

// TestClusterRoutesByTable: the cluster sends each message down the wire
// of the rank its table names for the message's route — the longest
// placed prefix — whether it is called or posted. A message without a
// route, anything that is not a message, and a route placed on a rank the
// cluster lacks go to rank 0.
func TestClusterRoutesByTable(t *testing.T) {
	eng, cl := newTestCluster(1, 3)
	var wire []int // the rank whose wire each message went down
	for r := range cl.Ranks() {
		cl.Rank(r).InjectFaults(func(next transport.Handler) transport.Handler {
			return func(p runtime.Task, msg any) any {
				wire = append(wire, r)
				return next(p, msg)
			}
		})
	}
	cl.Table().Place("/a", 1)
	cl.Table().Place("/a/b", 2)
	cl.Table().Place("/gone", 7)
	type stranger struct{}
	cases := []struct {
		msg  any
		want int
	}{
		{&probeMsg{to: "/a"}, 1},
		{&probeMsg{to: "/a/f"}, 1},
		{&probeMsg{to: "/a/b/c"}, 2},
		{&probeMsg{to: "/ab"}, 0}, // "/a" does not own "/ab"
		{&probeMsg{to: "/"}, 0},
		{&probeMsg{}, 0},
		{&Request{Op: OpGetAttr, Client: "c0", Ino: namespace.RootIno}, 0},
		{&AttachMsg{Path: "/a/b/c"}, 2},
		{stranger{}, 0},
		{&probeMsg{to: "/gone/x"}, 0},
	}
	run(t, eng, func(p runtime.Task) {
		for i, c := range cases {
			if got := cl.rankOf(c.msg); got != cl.Rank(c.want) {
				t.Errorf("case %d: %T routes to rank %d, want %d", i, c.msg, got.rank, c.want)
			}
			for _, send := range []func(runtime.Task, any) any{cl.Call, cl.Post} {
				wire = wire[:0]
				send(p, c.msg)
				if len(wire) != 1 || wire[0] != c.want {
					t.Errorf("case %d: %T went down the wires of ranks %v, want [%d]", i, c.msg, wire, c.want)
				}
			}
		}
	})
}

// TestDispatcherTracesEachMessage: a rank's dispatcher opens one
// transport span per message on the rank's own track, named by the
// message's label and covering the handler's window — an RPC's after its
// inbound hop, a post's from the call, and a bounced request's, which
// never reaches a handler and costs no time, at the instant it bounced.
func TestDispatcherTracesEachMessage(t *testing.T) {
	eng, cl := newTestCluster(1, 2)
	rec := trace.New()
	eng.(interface{ SetTracer(*trace.Recorder) }).SetTracer(rec)
	cl.Table().Place("/a", 1)
	const work = runtime.Duration(250 * time.Microsecond)
	lat := cl.Config().NetLatency
	var bounced *Reply
	run(t, eng, func(p runtime.Task) {
		p.Sleep(time.Millisecond)
		cl.Call(p, &probeMsg{to: "/a/f", work: work})
		cl.Post(p, &probeMsg{work: work})
		bounced = cl.Rank(0).Submit(p, &Request{Op: OpCreate, Client: "c0",
			Parent: namespace.RootIno, Name: "f", Mode: 0644, Route: "/a/f"})
	})
	if _, ok := transport.IsRedirect(bounced.Err); !ok {
		t.Fatalf("request for rank 1's subtree on rank 0: %v, want a redirect", bounced.Err)
	}
	ms := int64(time.Millisecond)
	rpcEnd := ms + int64(lat+work+lat) // the RPC's reply hop ends it
	postEnd := rpcEnd + int64(work)
	want := []trace.Span{
		{Proc: "mds.1", Cat: "transport", Name: "probe", Begin: ms + int64(lat), End: rpcEnd - int64(lat)},
		{Proc: "mds.0", Cat: "transport", Name: "probe", Begin: rpcEnd, End: postEnd},
		{Proc: "mds.0", Cat: "transport", Name: "rpc.create", Begin: postEnd + int64(lat), End: postEnd + int64(lat)},
	}
	var got []trace.Span
	for _, s := range rec.Spans() {
		if s.Cat == "transport" {
			got = append(got, trace.Span{Proc: s.Proc, Cat: s.Cat, Name: s.Name, Begin: s.Begin, End: s.End})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("transport spans:\n %+v\nwant\n %+v", got, want)
	}
}

// TestDispatcherUntracedBuildsNoLabel: with no recorder on the runtime the
// dispatcher asks no message for its label and records nothing, on a
// call and on a post.
func TestDispatcherUntracedBuildsNoLabel(t *testing.T) {
	eng, cl := newTestCluster(1, 1)
	call, post := &probeMsg{work: time.Microsecond}, &probeMsg{work: time.Microsecond}
	var replies []any
	run(t, eng, func(p runtime.Task) {
		replies = append(replies, cl.Call(p, call), cl.Post(p, post))
	})
	if replies[0] != 0 || replies[1] != 0 {
		t.Fatalf("replies = %v, want rank 0's twice", replies)
	}
	if call.labeled || post.labeled {
		t.Fatal("a message was labeled with tracing off")
	}
	if n := eng.Tracer().Len(); n != 0 {
		t.Fatalf("an untraced runtime recorded %d events", n)
	}
}
