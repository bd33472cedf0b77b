package rados

import (
	"errors"
	"fmt"
	"math/rand"

	"cudele/internal/runtime"
)

// ErrIO is the error injected write faults surface. Callers that want to
// distinguish an injected fault from a genuine miss can errors.Is against
// it.
var ErrIO = errors.New("rados: injected I/O error")

// FaultInjector decides, per write, whether the operation fails — and if
// so, whether a torn prefix of the payload is persisted anyway. It is
// default-off: a nil injector (the Cluster default) never fires, so every
// calibrated table and committed baseline is untouched.
//
// The injector draws from its own rand.Source, never from the engine's,
// so arming it cannot perturb the jitter stream the calibrated model
// consumes: with probabilities at zero, a run with an armed injector is
// byte-identical to one without.
type FaultInjector struct {
	rng *rand.Rand

	// WriteErrorProb is the chance a write fails cleanly: nothing is
	// persisted and the caller gets ErrIO.
	WriteErrorProb float64

	// TornWriteProb is the chance a write fails torn: a strict prefix of
	// the payload is persisted and the caller still gets ErrIO. Drawn
	// only when the clean-error draw missed.
	TornWriteProb float64

	// MaxFaults bounds how many faults fire in total (0 = unlimited), so
	// adversarial schedules still terminate: retry loops eventually see a
	// fault-free store.
	MaxFaults int

	// Match restricts injection to matching objects (nil = all objects).
	Match func(oid ObjectID) bool

	fired int
}

// NewFaultInjector returns an injector seeded with its own source.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{rng: rand.New(rand.NewSource(seed))}
}

// Fired reports how many faults the injector has injected so far.
func (f *FaultInjector) Fired() int { return f.fired }

type faultOutcome int

const (
	faultNone  faultOutcome = iota
	faultError              // nothing persisted
	faultTorn               // a strict prefix persisted
)

// writeOutcome draws the fate of one write of n payload bytes. For a torn
// outcome it also returns how many bytes land (in [0, n)).
func (f *FaultInjector) writeOutcome(oid ObjectID, n int) (faultOutcome, int) {
	if f == nil {
		return faultNone, 0
	}
	if f.MaxFaults > 0 && f.fired >= f.MaxFaults {
		return faultNone, 0
	}
	if f.Match != nil && !f.Match(oid) {
		return faultNone, 0
	}
	if f.WriteErrorProb > 0 && f.rng.Float64() < f.WriteErrorProb {
		f.fired++
		return faultError, 0
	}
	if f.TornWriteProb > 0 && f.rng.Float64() < f.TornWriteProb {
		f.fired++
		if n <= 0 {
			return faultError, 0
		}
		return faultTorn, f.rng.Intn(n)
	}
	return faultNone, 0
}

func faultErrf(kind string, oid ObjectID) error {
	return fmt.Errorf("%s %v: %w", kind, oid, ErrIO)
}

// recordFault notes one injected write fault in the flight recorder (all
// injected store faults share the "rados" ring), so a chaos dump shows
// which object writes failed just before a violation. One nil check when
// the recorder is off.
func (c *Cluster) recordFault(p runtime.Task, kind string, oid ObjectID) {
	if rec := c.eng.Tracer(); rec != nil {
		rec.Record(int64(p.Now()), "rados", "rados", "fault."+kind, oid.String())
	}
}
