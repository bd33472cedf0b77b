package transport

import (
	"errors"
	"fmt"
)

// WrongRankError is the typed redirect a metadata rank answers when a
// request routed with a stale table lands on a rank that does not own the
// path — or owns it but has it frozen for an in-flight migration. It
// carries everything the client needs to recover without a generic
// failure: the rank that owns the subtree now and the cluster-map epoch
// that placement was published at, so the client can refresh its replica
// table and retry.
type WrongRankError struct {
	// Path is the routed subtree the request addressed.
	Path string
	// Rank is the rank that owns Path at Epoch. When Frozen is set the
	// ownership is mid-handoff and Rank is the last committed owner.
	Rank int
	// Epoch is the cluster-map epoch of the answering rank's table. A
	// client whose replica is older should refresh before retrying.
	Epoch uint64
	// Frozen marks a subtree locked by an in-flight export: the request
	// is neither served nor permanently rejected — retry after the
	// migration commits or aborts and a new epoch is published.
	Frozen bool
}

func (e *WrongRankError) Error() string {
	if e.Frozen {
		return fmt.Sprintf("transport: subtree %s frozen for migration (epoch %d)", e.Path, e.Epoch)
	}
	return fmt.Sprintf("transport: wrong rank for %s: owner is rank %d (epoch %d)", e.Path, e.Rank, e.Epoch)
}

// IsRedirect reports whether err is (or wraps) a WrongRankError and
// returns it. A nil err — every served RPC — returns before the errors.As
// target is declared: the target escapes, so declaring it costs a heap
// allocation.
func IsRedirect(err error) (*WrongRankError, bool) {
	if err == nil {
		return nil, false
	}
	var wr *WrongRankError
	if errors.As(err, &wr) {
		return wr, true
	}
	return nil, false
}
