package mds

import (
	"cudele/internal/journal"
	"cudele/internal/policy"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// The metadata service speaks messages over its ranks' wires, routed by
// the cluster (Cluster.Call, Cluster.Post). RPCs (*Request) go through
// Call, which charges wire latency both ways; the control and bulk
// messages below go through Post and charge their own calibrated costs (a
// journal merge's network cost is its byte transfer, not an RPC round
// trip).

// message is what every endpoint message knows about itself, declared
// next to its type: adding a message is one type in one place.
type message interface {
	// label names the message's span and CPU-profile op.
	label() string
	// route is the namespace path the cluster picks the owning rank by
	// (Cluster.rankOf); empty routes to rank 0. Migration control
	// messages are posted to explicit ranks, so theirs only shows as
	// their span's detail.
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

// MergeMsg ships a decoupled client's journal for a merge in one
// message (the calibrated all-at-once arrival model). Source is a
// bounded-memory cursor over the journal rather than a flat event copy,
// since the handler runs synchronously in the sender's process; a flat
// run of events ships as journal.CursorOver.
type MergeMsg struct {
	Source       *journal.Cursor
	NominalBytes int64
	// Cell is the registered consistency cell, which picks the apply
	// step (mergeStep): validated in the speculative cell, converging in
	// the strong-eventual cell, blind in every other.
	Cell policy.Consistency
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
	Backpressure bool   // admission queue full; retry after a delay
	Err          error
}

// Backpressured implements transport.Flow.
func (r *StreamOpenReply) Backpressured() bool { return r.Backpressure }

// StreamChunkReply answers one chunk of a windowed stream (MergeChunkMsg,
// ImportChunkMsg).
type StreamChunkReply struct {
	Backpressure bool // window full; chunk not accepted, retry it
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
