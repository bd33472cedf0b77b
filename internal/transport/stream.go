// Chunked streams: the flow-control primitive under bulk transfers.
//
// A logical payload (a client journal) is split into chunk messages that
// travel through the ordinary Endpoint.Post path, so every chunk passes
// the receiver's interceptor chain and dispatcher — a rank's dispatcher
// spans each chunk without the stream code knowing about it — and the
// receiver's handler charges the per-chunk wire cost (latency plus bytes
// on the shared fabric).
//
// Flow control is credit-free and deterministic: the receiver keeps a
// bounded Window of buffered chunks per stream; a chunk that arrives
// with the window full is answered with a backpressure reply (no state
// kept, no time charged) and the sender retries after a fixed delay.
// SendWindowed is that retry loop.
package transport

import "cudele/internal/runtime"

// StreamInfo identifies one chunk's position in a chunked stream.
// Concrete chunk messages embed it so interceptors and schedulers can
// handle chunks generically.
type StreamInfo struct {
	ID    uint64 // stream id, assigned by the receiver at open
	Seq   int    // chunk index within the stream, from 0
	Items int    // payload items (journal events) in this chunk
	Bytes int64  // nominal wire bytes of this chunk
	Last  bool   // set on the stream's final chunk
}

// StreamChunk is implemented by chunk messages.
type StreamChunk interface{ Stream() StreamInfo }

// Stream implements StreamChunk; embedding StreamInfo is enough.
func (i StreamInfo) Stream() StreamInfo { return i }

// Flow is implemented by replies that carry flow-control state. A
// backpressured reply means the receiver kept nothing: the sender owns
// the message and must retry it.
type Flow interface{ Backpressured() bool }

// SendWindowed posts msg until the receiver accepts it, sleeping
// retryDelay between backpressured attempts, and returns the accepting
// reply. Replies that do not implement Flow are accepted as-is.
func SendWindowed(p runtime.Task, ep Endpoint, msg any, retryDelay runtime.Duration) any {
	for {
		reply := ep.Post(p, msg)
		if f, ok := reply.(Flow); !ok || !f.Backpressured() {
			return reply
		}
		p.Sleep(retryDelay)
	}
}

// windowEntry is one buffered chunk plus its arrival time, kept so the
// scheduler can account how long chunks waited to be serviced.
type windowEntry struct {
	payload any
	at      runtime.Time
}

// Window is the receiver side of one chunked stream: a bounded FIFO of
// chunks that have been accepted off the wire but not yet serviced.
// Its size is the stream's flow-control window.
type Window struct {
	limit int
	q     []windowEntry
}

// NewWindow returns a window that buffers at most limit chunks; limit
// < 1 is treated as 1 (a window must admit progress).
func NewWindow(limit int) *Window {
	if limit < 1 {
		limit = 1
	}
	return &Window{limit: limit}
}

// TryPush buffers a chunk, stamping its arrival time. It returns false
// when the window is full — the caller should answer with backpressure.
func (w *Window) TryPush(now runtime.Time, payload any) bool {
	if len(w.q) >= w.limit {
		return false
	}
	w.q = append(w.q, windowEntry{payload: payload, at: now})
	return true
}

// Pop removes the oldest buffered chunk and reports how long it waited.
func (w *Window) Pop(now runtime.Time) (payload any, waited runtime.Duration, ok bool) {
	if len(w.q) == 0 {
		return nil, 0, false
	}
	e := w.q[0]
	// Shift rather than reslice so buffered chunk payloads are released
	// for collection as soon as they are serviced.
	copy(w.q, w.q[1:])
	w.q[len(w.q)-1] = windowEntry{}
	w.q = w.q[:len(w.q)-1]
	return e.payload, runtime.Duration(now - e.at), true
}

// Len returns the number of buffered chunks.
func (w *Window) Len() int { return len(w.q) }

// Limit returns the window size.
func (w *Window) Limit() int { return w.limit }
