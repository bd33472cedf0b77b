package mds

import (
	"cudele/internal/journal"
	"cudele/internal/namespace"
	"cudele/internal/policy"
	"cudele/internal/transport"
)

// The metadata service speaks messages over a transport.Endpoint. RPCs
// (*Request) go through Endpoint.Call, which charges wire latency both
// ways; the control and bulk messages below go through Endpoint.Post and
// charge their own calibrated costs (a journal merge's network cost is
// its byte transfer, not an RPC round trip).

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

// MergeWaitMsg blocks until a streamed merge has applied its final chunk
// and reports the merge result as a MergeReply.
type MergeWaitMsg struct {
	ID    uint64
	Route string
}

// MergeAbortMsg abandons a streamed merge after a client-side error, so
// the scheduler can retire the job and release its admission slot
// instead of parking on it forever.
type MergeAbortMsg struct {
	ID    uint64
	Route string
}

// DecoupleMsg attaches a policy to a subtree and reserves its inode
// grant (sent by the monitor on a client's behalf).
type DecoupleMsg struct {
	Path   string
	Policy *policy.Policy
	Client string
}

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

// RecoupleReply answers a RecoupleMsg.
type RecoupleReply struct {
	Err error
}

// RouteOf extracts the routing path from a metadata message; it is the
// key function a transport.Router uses to pick the owning rank. Messages
// without a route (empty string) belong to rank 0.
func RouteOf(msg any) string {
	switch m := msg.(type) {
	case *Request:
		return m.Route
	case *MergeMsg:
		return m.Route
	case *MergeOpenMsg:
		return m.Route
	case *MergeChunkMsg:
		return m.Route
	case *MergeWaitMsg:
		return m.Route
	case *MergeAbortMsg:
		return m.Route
	case *DecoupleMsg:
		return m.Path
	case *RecoupleMsg:
		return m.Path
	// Migration control messages are posted to explicit rank endpoints
	// by the monitor, never routed; the route here is for observability
	// (flight-recorder detail strings).
	case *ExportFreezeMsg:
		return m.Path
	case *ExportSaveMsg:
		return m.Path
	case *ExportReadMsg:
		return m.Path
	case *ExportCommitMsg:
		return m.Path
	case *ExportAbortMsg:
		return m.Path
	case *ImportOpenMsg:
		return m.Path
	case *ImportChunkMsg:
		return m.Path
	case *AttachMsg:
		return m.Path
	}
	return ""
}
