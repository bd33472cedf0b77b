package transport

import "fmt"

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
// returns it. It walks the chain errors.As walks — Unwrap() error, and
// Unwrap() []error depth first — with a type assertion per link, so it
// allocates nothing: an errors.As target escapes, which cost a heap
// allocation for every non-nil err (a cap-less create's not-found
// lookup). An As method is not consulted; no error here has one.
func IsRedirect(err error) (*WrongRankError, bool) {
	for err != nil {
		switch e := err.(type) {
		case *WrongRankError:
			return e, true
		case interface{ Unwrap() error }:
			err = e.Unwrap()
		case interface{ Unwrap() []error }:
			for _, inner := range e.Unwrap() {
				if wr, ok := IsRedirect(inner); ok {
					return wr, true
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
	return nil, false
}
