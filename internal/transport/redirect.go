package transport

import (
	"errors"
	"fmt"
)

// WrongRankError is the typed redirect a metadata rank answers when a
// request lands on a rank that does not own the path — it was routed
// before a migration committed and served after — or owns it but has it
// frozen for an in-flight migration. The request never reached its
// handler, so the client retries it, routed by the table as it is then.
type WrongRankError struct {
	// Path is the routed subtree the request addressed.
	Path string
	// Rank is the rank that owns Path. When Frozen is set the ownership
	// is mid-handoff and Rank is the last committed owner.
	Rank int
	// Frozen marks a subtree locked by an in-flight export: the request
	// is neither served nor permanently rejected — retry after the
	// migration commits or aborts.
	Frozen bool
}

func (e *WrongRankError) Error() string {
	if e.Frozen {
		return fmt.Sprintf("transport: subtree %s frozen for migration", e.Path)
	}
	return fmt.Sprintf("transport: wrong rank for %s: owner is rank %d", e.Path, e.Rank)
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
