package obs

import "cudele/internal/trace"

// Flight is the trace recorder under its old name. A chaos dump is the
// tail of the trace (trace.Recorder.Dump), so nothing in the program
// records here; the alias and NewFlight remain only because the host
// benchmark's obs.flight_record_ns probe row calls them, and go when that
// row is dropped (ROADMAP item 4).
type Flight = trace.Recorder

// NewFlight returns an enabled trace recorder; the size is ignored.
func NewFlight(int) *Flight { return trace.New() }
