// Package cm implements contention-management policies for the polymorphic
// transactional runtime (Scherer & Scott, PODC 2005, cited as [33] by the
// paper: "various strategies have been proposed").
//
// A contention manager arbitrates each conflict between a blocked
// transaction and the current lock owner, deciding whether the blocked
// transaction waits, aborts itself, or cooperatively kills the owner.
// Policies trade progress guarantees against wasted work; the benchmark
// harness includes a policy-sweep ablation on a hot-spot workload.
package cm

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// New builds the policy with the given registry name. Names are the
// lower-case policy names listed by Names.
func New(name string) (core.ContentionManager, error) {
	switch name {
	case "suicide":
		return Suicide{}, nil
	case "aggressive":
		return Aggressive{}, nil
	case "polite":
		return NewPolite(8), nil
	case "backoff":
		return NewBackoff(32), nil
	case "karma":
		return NewKarma(), nil
	case "timestamp":
		return Timestamp{}, nil
	case "greedy":
		return Greedy{}, nil
	default:
		return nil, fmt.Errorf("unknown contention manager %q", name)
	}
}

// Names lists the registered policy names in stable order.
func Names() []string {
	names := []string{"suicide", "aggressive", "polite", "backoff", "karma", "timestamp", "greedy"}
	sort.Strings(names)
	return names
}

// Suicide aborts the blocked transaction immediately. It is the simplest
// livelock-free policy when combined with randomized backoff: the enemy is
// never disturbed, so some transaction always completes.
type Suicide struct{}

var _ core.ContentionManager = Suicide{}

// Arbitrate implements core.ContentionManager.
func (Suicide) Arbitrate(_, _ *core.Tx, _ int) core.Decision { return core.DecisionAbortSelf }

// OnCommit implements core.ContentionManager.
func (Suicide) OnCommit(*core.Tx) {}

// OnAbort implements core.ContentionManager.
func (Suicide) OnAbort(*core.Tx) {}

// Aggressive always kills the lock owner. Kills are cooperative: an owner
// past its validation point finishes anyway, so Aggressive degenerates to
// waiting in that window. Prone to livelock under symmetric contention;
// included as the classic worst-case baseline.
type Aggressive struct{}

var _ core.ContentionManager = Aggressive{}

// Arbitrate implements core.ContentionManager.
func (Aggressive) Arbitrate(_, owner *core.Tx, _ int) core.Decision {
	if owner == nil {
		return core.DecisionWait
	}
	return core.DecisionAbortOther
}

// OnCommit implements core.ContentionManager.
func (Aggressive) OnCommit(*core.Tx) {}

// OnAbort implements core.ContentionManager.
func (Aggressive) OnAbort(*core.Tx) {}

// Polite spins with exponentially growing patience for a bounded number of
// rounds, then kills the owner. It approximates the "polite" policy of
// Scherer & Scott with the runtime's yield-based waiting.
type Polite struct {
	rounds int
}

var _ core.ContentionManager = (*Polite)(nil)

// NewPolite returns a Polite manager that waits the given number of
// arbitration rounds before killing the owner.
func NewPolite(rounds int) *Polite {
	if rounds < 1 {
		rounds = 1
	}
	return &Polite{rounds: rounds}
}

// Arbitrate implements core.ContentionManager.
func (p *Polite) Arbitrate(_, owner *core.Tx, attempt int) core.Decision {
	if attempt < p.rounds {
		return core.DecisionWait
	}
	if owner == nil {
		return core.DecisionWait
	}
	return core.DecisionAbortOther
}

// OnCommit implements core.ContentionManager.
func (p *Polite) OnCommit(*core.Tx) {}

// OnAbort implements core.ContentionManager.
func (p *Polite) OnAbort(*core.Tx) {}

// Backoff waits a fixed number of arbitration rounds and then aborts the
// blocked transaction. It is the runtime's default policy shape, exported
// here with a configurable patience for the ablation sweep.
type Backoff struct {
	rounds int
}

var _ core.ContentionManager = (*Backoff)(nil)

// NewBackoff returns a Backoff manager with the given patience in rounds.
func NewBackoff(rounds int) *Backoff {
	if rounds < 1 {
		rounds = 1
	}
	return &Backoff{rounds: rounds}
}

// Arbitrate implements core.ContentionManager.
func (b *Backoff) Arbitrate(_, _ *core.Tx, attempt int) core.Decision {
	if attempt < b.rounds {
		return core.DecisionWait
	}
	return core.DecisionAbortSelf
}

// OnCommit implements core.ContentionManager.
func (b *Backoff) OnCommit(*core.Tx) {}

// OnAbort implements core.ContentionManager.
func (b *Backoff) OnAbort(*core.Tx) {}

// Karma prioritizes transactions by invested work: an attempt's reads and
// writes are its karma, and karma persists across aborts so starving
// transactions eventually win. The blocked transaction kills the owner
// only once its karma (plus patience spent waiting) exceeds the owner's.
type Karma struct{}

var _ core.ContentionManager = Karma{}

// NewKarma returns a Karma manager.
func NewKarma() Karma { return Karma{} }

// Arbitrate implements core.ContentionManager.
func (Karma) Arbitrate(tx, owner *core.Tx, attempt int) core.Decision {
	if owner == nil {
		return core.DecisionWait
	}
	mine := tx.Priority() + tx.Work() + int64(attempt)
	theirs := owner.Priority() + owner.Work()
	if mine > theirs {
		return core.DecisionAbortOther
	}
	return core.DecisionWait
}

// OnCommit implements core.ContentionManager.
func (Karma) OnCommit(*core.Tx) {}

// OnAbort accumulates the aborted attempt's work as karma.
func (Karma) OnAbort(tx *core.Tx) {
	tx.AddPriority(tx.Work())
}

// Timestamp gives absolute priority to the older transaction (by logical
// age, see elder): the younger side waits, and kills only when it is itself
// the elder. Starvation-free: the oldest live transaction always wins.
type Timestamp struct{}

var _ core.ContentionManager = Timestamp{}

// Arbitrate implements core.ContentionManager.
func (Timestamp) Arbitrate(tx, owner *core.Tx, _ int) core.Decision {
	if owner == nil {
		return core.DecisionWait
	}
	if elder(tx, owner) {
		return core.DecisionAbortOther
	}
	return core.DecisionWait
}

// OnCommit implements core.ContentionManager.
func (Timestamp) OnCommit(*core.Tx) {}

// OnAbort implements core.ContentionManager.
func (Timestamp) OnAbort(*core.Tx) {}

// Greedy is Timestamp with impatience: the younger transaction waits a few
// rounds for the elder to finish, then aborts itself instead of spinning
// (approximating the waiting/killed state distinction of the published
// Greedy manager without shared state).
type Greedy struct{}

var _ core.ContentionManager = Greedy{}

// Arbitrate implements core.ContentionManager.
func (Greedy) Arbitrate(tx, owner *core.Tx, attempt int) core.Decision {
	if owner == nil {
		return core.DecisionWait
	}
	if elder(tx, owner) || owner.Killed() {
		return core.DecisionAbortOther
	}
	if attempt > 16 {
		return core.DecisionAbortSelf
	}
	return core.DecisionWait
}

// OnCommit implements core.ContentionManager.
func (Greedy) OnCommit(*core.Tx) {}

// OnAbort implements core.ContentionManager.
func (Greedy) OnAbort(*core.Tx) {}

// elder reports whether tx is older than owner: it orders transactions by
// (Age, ID), smallest first. Age is the clock value a call's first attempt
// sampled, kept across retries, and an ID is unique within its TM and also
// stable across retries, so the order is total and fixed for each
// transaction's lifetime. That is all Greedy and Timestamp need for
// progress: among the live transactions one is the eldest, it wins every
// arbitration it enters (the other side waits, aborts itself, or is
// killed), so it commits, and the same then holds for the next eldest.
// The order is also fair over time: a commit moves the clock, so under
// the exact clock every call that starts after a commit is younger than
// every call that started before it. (Under ClockGVSharded a first attempt
// may sample a stale stripe and tie with or precede older calls; that
// costs fairness, not progress.)
func elder(tx, owner *core.Tx) bool {
	if a, b := tx.Age(), owner.Age(); a != b {
		return a < b
	}
	return tx.ID() < owner.ID()
}
