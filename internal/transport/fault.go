package transport

import (
	"fmt"
	"math/rand"

	"cudele/internal/runtime"
)

// The message-fault interceptor's schedule. Loss is modeled as bounded
// retransmission: each transmission of a message is lost with dropProb,
// the sender pays retransmitDelay per lost copy, and after
// maxRetransmits the message goes through regardless. Delivery stays
// exactly-once — the fault is in the timing, never in the protocol's
// visible semantics — so runs always terminate. A message is delayed
// with delayProb by a uniform extra latency in (0, maxExtraDelay], and
// delivered twice with duplicateProb (the retransmission arriving after
// the original).
const (
	dropProb        = 0.2
	maxRetransmits  = 3
	retransmitDelay = runtime.Duration(1e6)
	delayProb       = 0.2
	maxExtraDelay   = runtime.Duration(2e6)
	duplicateProb   = 0.2
)

// NewFaultInterceptor builds a message-fault interceptor seeded with its
// own rand.Source — it never draws from an engine's stream, so arming it
// cannot perturb the calibrated model's jitter. Only messages duplicateOK
// approves are duplicated; with a nil predicate nothing is — double
// delivery is only safe for idempotent handlers. Compose it into a wire's
// handler chain with Chain or Wire.Wrap.
func NewFaultInterceptor(seed int64, duplicateOK func(msg any) bool) Interceptor {
	rng := rand.New(rand.NewSource(seed))
	return func(next Handler) Handler {
		return func(p runtime.Task, msg any) any {
			fl := p.Runtime().Flight()
			for i := 0; i < maxRetransmits && rng.Float64() < dropProb; i++ {
				if fl != nil {
					fl.Record(int64(p.Now()), p.Name(), "net", "drop", fmt.Sprintf("%T", msg))
				}
				p.Sleep(retransmitDelay)
			}
			if rng.Float64() < delayProb {
				if fl != nil {
					fl.Record(int64(p.Now()), p.Name(), "net", "delay", fmt.Sprintf("%T", msg))
				}
				p.Sleep(runtime.Duration(rng.Int63n(int64(maxExtraDelay)) + 1))
			}
			if duplicateOK != nil && duplicateOK(msg) && rng.Float64() < duplicateProb {
				if fl != nil {
					fl.Record(int64(p.Now()), p.Name(), "net", "duplicate", fmt.Sprintf("%T", msg))
				}
				// First delivery; its reply is the one the network lost.
				next(p, msg)
			}
			return next(p, msg)
		}
	}
}
