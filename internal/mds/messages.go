package mds

import (
	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// The metadata service speaks messages over a transport.Endpoint. RPCs
// (*Request) go through Endpoint.Call, which charges wire latency both
// ways; the control and bulk messages below go through Endpoint.Post and
// charge their own calibrated costs (a journal merge's network cost is
// its byte transfer, not an RPC round trip).

// message is what every endpoint message knows about itself, declared
// next to its type: adding a message is one type in one place.
type message interface {
	// label names the message's span and flight-recorder event.
	label() string
	// route is the namespace path a router picks the owning rank by;
	// empty routes to rank 0. Migration control messages are posted to
	// explicit rank endpoints, so theirs only shows in flight dumps.
	route() string
	// serve runs the message's handler on rank s.
	serve(s *Server, p runtime.Task) any
}

// refusable is a workload message that a rank bounces when the subtree it
// addresses is frozen for export or owned elsewhere (Server.bounce);
// refused builds the message's own reply type around the redirect.
// Control traffic does not implement it and always passes.
type refusable interface {
	message
	refused(err error) any
}

// MergeMode selects how a MergeMsg's events are applied. The zero value
// is the paper's blind Volatile Apply, so every pre-existing sender and
// committed baseline is untouched.
type MergeMode uint8

const (
	// MergeBlind is Table I's Volatile Apply: replay with no checks,
	// conflicts resolved in favor of the decoupled namespace.
	MergeBlind MergeMode = iota
	// MergeSpeculative validates each event against the current global
	// view; conflicting predictions are skipped and reported back by
	// index so the client can roll them back (ConsSpeculative).
	MergeSpeculative
	// MergeConverge merges through the strong-eventual CRDT resolver,
	// so concurrent merges commute (ConsStrongEventual).
	MergeConverge
)

// MergeMsg ships a decoupled client's journal for Volatile Apply in one
// message (the calibrated all-at-once arrival model). Exactly one of
// Events and Source carries the journal: Source lets the sender hand
// over a bounded-memory cursor instead of a flat event copy, since the
// handler runs synchronously in the sender's process.
type MergeMsg struct {
	Events       []*journal.Event
	Source       *journal.Cursor
	NominalBytes int64
	// Mode selects blind, speculative, or convergent apply.
	Mode MergeMode
	// Route is the decoupled subtree's path, used by the routing layer
	// to find the owning rank.
	Route string
}

func (m *MergeMsg) label() string                       { return "merge" }
func (m *MergeMsg) route() string                       { return m.Route }
func (m *MergeMsg) serve(s *Server, p runtime.Task) any { return s.mergeOneShot(p, m) }
func (m *MergeMsg) refused(err error) any               { return &MergeReply{Err: err} }

// MergeReply answers a MergeMsg or a MergeWaitMsg.
type MergeReply struct {
	Applied int
	// Conflicts lists the journal indices a speculative merge rejected,
	// in ascending order; the client must undo exactly these ops.
	Conflicts []int
	Err       error
}

// MergeOpenMsg opens a streamed (chunked) merge: the scheduler admits
// the job — or answers with backpressure when MergeAdmitMax jobs are
// already merging — and assigns the stream id the chunks will carry.
type MergeOpenMsg struct {
	Client      string
	Route       string
	TotalEvents int
	TotalBytes  int64
}

func (m *MergeOpenMsg) label() string                       { return "merge.open" }
func (m *MergeOpenMsg) route() string                       { return m.Route }
func (m *MergeOpenMsg) serve(s *Server, p runtime.Task) any { return s.merge.open(p) }
func (m *MergeOpenMsg) refused(err error) any               { return &MergeOpenReply{Err: err} }

// StreamOpenReply answers the open of a windowed stream (MergeOpenMsg,
// ImportOpenMsg).
type StreamOpenReply struct {
	ID           uint64 // stream id for the chunks that follow
	Window       int    // chunks the rank will buffer before backpressure
	Backpressure bool   // admission queue full; retry after a delay
	QueueDepth   int    // jobs admitted at reply time
	Err          error
}

// Backpressured implements transport.Flow.
func (r *StreamOpenReply) Backpressured() bool { return r.Backpressure }

// StreamChunkReply answers one chunk of a windowed stream (MergeChunkMsg,
// ImportChunkMsg).
type StreamChunkReply struct {
	Backpressure bool // window full; chunk not accepted, retry it
	Window       int  // buffered chunks after this one
	Err          error
}

// Backpressured implements transport.Flow.
func (r *StreamChunkReply) Backpressured() bool { return r.Backpressure }

// StreamAbortReply answers the abandonment of a windowed stream
// (MergeAbortMsg, ImportAbortMsg).
type StreamAbortReply struct{ Err error }

// Both stream kinds answer with the shared scheduler's replies.
type (
	MergeOpenReply   = StreamOpenReply
	MergeChunkReply  = StreamChunkReply
	ImportOpenReply  = StreamOpenReply
	ImportChunkReply = StreamChunkReply
)

// MergeChunkMsg ships one chunk of a streamed merge. It embeds
// transport.StreamInfo, so interceptors (tracing) see it as a generic
// stream chunk.
type MergeChunkMsg struct {
	transport.StreamInfo
	Route  string
	Events []*journal.Event
}

func (m *MergeChunkMsg) label() string                       { return "merge.chunk" }
func (m *MergeChunkMsg) route() string                       { return m.Route }
func (m *MergeChunkMsg) serve(s *Server, p runtime.Task) any { return s.merge.push(p, m) }

// MergeWaitMsg blocks until a streamed merge has applied its final chunk
// and reports the merge result as a MergeReply.
type MergeWaitMsg struct {
	ID    uint64
	Route string
}

func (m *MergeWaitMsg) label() string { return "merge.wait" }
func (m *MergeWaitMsg) route() string { return m.Route }
func (m *MergeWaitMsg) serve(s *Server, p runtime.Task) any {
	applied, err := s.merge.wait(p, m.ID)
	return &MergeReply{Applied: applied, Err: err}
}

// MergeAbortMsg abandons a streamed merge after a client-side error, so
// the scheduler can retire the job and release its admission slot
// instead of parking on it forever.
type MergeAbortMsg struct {
	ID    uint64
	Route string
}

func (m *MergeAbortMsg) label() string                       { return "merge.abort" }
func (m *MergeAbortMsg) route() string                       { return m.Route }
func (m *MergeAbortMsg) serve(s *Server, p runtime.Task) any { return s.merge.abort(p, m.ID) }

// DecoupleMsg attaches a policy to a subtree and reserves its inode
// grant (sent by the monitor on a client's behalf).
type DecoupleMsg struct {
	Path   string
	Policy *policy.Policy
	Client string
}

func (m *DecoupleMsg) label() string                       { return "decouple" }
func (m *DecoupleMsg) route() string                       { return m.Path }
func (m *DecoupleMsg) serve(s *Server, p runtime.Task) any { return s.decouple(p, m) }

// DecoupleReply answers a DecoupleMsg.
type DecoupleReply struct {
	Lo  namespace.Ino
	N   uint64
	Err error
}

// RecoupleMsg clears a subtree's policy and owner registration.
type RecoupleMsg struct {
	Path string
}

func (m *RecoupleMsg) label() string { return "recouple" }
func (m *RecoupleMsg) route() string { return m.Path }
func (m *RecoupleMsg) serve(s *Server, p runtime.Task) any {
	return &RecoupleReply{Err: s.recouple(p, m.Path)}
}

// RecoupleReply answers a RecoupleMsg.
type RecoupleReply struct {
	Err error
}

// RouteOf extracts the routing path from a metadata message; it is the
// key function a transport.Router uses to pick the owning rank. Messages
// without a route (empty string) belong to rank 0.
func RouteOf(msg any) string {
	if m, ok := msg.(message); ok {
		return m.route()
	}
	return ""
}
