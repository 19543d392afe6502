package core

// Decision is a contention manager's verdict when transaction tx is blocked
// by a conflicting owner (section 2.2 of the paper: "Deciding upon the
// conflict resolution strategy is the task of a dedicated service, called a
// contention manager").
type Decision int

const (
	// DecisionWait: spin/yield and re-attempt the conflicting step.
	DecisionWait Decision = iota + 1
	// DecisionAbortSelf: abort the blocked transaction; the runtime will
	// back off and retry it.
	DecisionAbortSelf
	// DecisionAbortOther: cooperatively kill the lock owner. The owner
	// observes the kill flag at its next validation point; if it already
	// passed validation it completes, so killing degrades to waiting.
	DecisionAbortOther
)

// String names the decision for logs and tests.
func (d Decision) String() string {
	switch d {
	case DecisionWait:
		return "wait"
	case DecisionAbortSelf:
		return "abort-self"
	case DecisionAbortOther:
		return "abort-other"
	default:
		return "unknown"
	}
}

// ContentionManager arbitrates conflicts between live transactions.
// Implementations live in internal/cm; the interface is defined here so the
// runtime does not depend on the policy package.
//
// Arbitrate may be called concurrently from many transactions and must not
// block. owner may be nil when the lock holder could not be observed (it
// may have just released); treating nil as "wait once more" is reasonable.
// attempt counts consecutive arbitrations for the same conflict.
//
// Conflicts reach the manager from ONE engine regardless of the cell's
// type: TypedCell.Load/TypedCell.Store of every T funnel into the same
// read/acquire paths, so a policy never needs to know — and cannot tell —
// what the contended location holds.
//
// The owner pointer may refer to a handle that has finished and been
// recycled for a new transaction (handles are pooled): policies must only
// consult owner through the race-free accessors ID, Age, Priority, Work,
// Killed and Kill — never Semantics, Attempt or the transactional
// operations, which are exclusive to the owning
// goroutine. A stale owner read yields a heuristically outdated but
// harmless answer.
//
// OnCommit and OnAbort let stateful policies (e.g. Karma) account for work.
type ContentionManager interface {
	Arbitrate(tx, owner *Tx, attempt int) Decision
	OnCommit(tx *Tx)
	OnAbort(tx *Tx)
}

// defaultCM waits with exponential patience and then aborts self. It is the
// policy used when the TM is built without an explicit manager; it is
// livelock-free in combination with the runtime's randomized backoff.
type defaultCM struct {
	patience int
}

var _ ContentionManager = (*defaultCM)(nil)

func (m *defaultCM) Arbitrate(_, _ *Tx, attempt int) Decision {
	if attempt < m.patience {
		return DecisionWait
	}
	return DecisionAbortSelf
}

func (m *defaultCM) OnCommit(*Tx) {}

func (m *defaultCM) OnAbort(*Tx) {}
