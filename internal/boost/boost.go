// Package boost implements transactional boosting (Herlihy & Koskinen,
// PPoPP 2008 — the paper's [39]) and an escrow-style counter (Reuter's
// high-traffic elements / O'Neil's escrow method — [25, 26]) on top of the
// polymorphic runtime: boosting on its deferred-action hooks (core.Tx.Defer),
// the counter on its commit-time delta log (core.Tx.AddOnCommit).
//
// The paper's section 4.1 discusses these as the *competing* relaxation
// methodology: operations on a concurrent object commute at a high level
// of abstraction, so instead of tracking memory reads the transaction
// takes an abstract lock per operation and logs an inverse operation to
// compensate on abort. The cost — which this package makes concrete — is
// exactly what the paper says: "the programmer must identify operations
// that commute and define inverse operations", and such a compensating
// block "is typically as long as the corresponding transaction block
// itself". Compare SetView here (explicit locks, inverse ops, timeout
// tuning) with the elastic list in internal/txstruct (sequential code plus
// a label).
package boost

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/intset"
)

// ErrLockTimeout is wrapped into the abort path when an abstract lock
// cannot be acquired in time; the transaction restarts.
var ErrLockTimeout = errors.New("abstract lock timeout")

// lockTable maps abstract keys to locks with try-acquire semantics. Locks
// are held until the owning transaction commits or aborts (two-phase over
// abstract locks), so acquisition must time out to stay deadlock-free.
type lockTable struct {
	mu    sync.Mutex
	locks map[int]*keyLock
}

type keyLock struct {
	mu     sync.Mutex
	owner  *core.Tx
	refcnt int
}

func newLockTable() *lockTable {
	return &lockTable{locks: make(map[int]*keyLock)}
}

// acquire takes the abstract lock for key on behalf of tx, reentrant for
// the same transaction. It aborts tx (via Restart) on timeout.
func (lt *lockTable) acquire(tx *core.Tx, key int, timeout time.Duration) {
	lt.mu.Lock()
	kl, ok := lt.locks[key]
	if !ok {
		kl = &keyLock{}
		lt.locks[key] = kl
	}
	if kl.owner == tx {
		kl.refcnt++
		lt.mu.Unlock()
		return
	}
	lt.mu.Unlock()

	deadline := time.Now().Add(timeout)
	for {
		lt.mu.Lock()
		if kl.owner == nil {
			kl.owner = tx
			kl.refcnt = 1
			lt.mu.Unlock()
			// Release is deferred to transaction end: abstract locks
			// are two-phase (the open-nesting deadlock discipline the
			// paper warns about, handled here by timeout+restart).
			tx.Defer(
				func() { lt.release(tx, key) },
				func() { lt.release(tx, key) },
			)
			return
		}
		lt.mu.Unlock()
		if time.Now().After(deadline) {
			// Deadlock suspicion: give up the attempt; the runtime
			// backs off and retries, re-running the closure.
			tx.Restart()
		}
		time.Sleep(2 * time.Microsecond)
	}
}

// release drops tx's hold on key (all reentrant holds at once: release is
// called exactly once per first acquisition).
func (lt *lockTable) release(tx *core.Tx, key int) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if kl, ok := lt.locks[key]; ok && kl.owner == tx {
		kl.owner = nil
		kl.refcnt = 0
	}
}

// SetView is a transactionally boosted integer set: it wraps any linear-
// izable concurrent set and makes its operations transactional through
// abstract per-value locks plus inverse operations, without instrumenting
// the base structure's memory.
//
// Operations must run inside a transaction of the TM the view was built
// with; effects are applied to the base set eagerly and compensated on
// abort. Size is intentionally absent: size does not commute with
// add/remove, which is precisely why the boosting methodology cannot
// express the paper's Collection benchmark without falling back to a
// global abstract lock.
type SetView struct {
	tm      *core.TM
	base    intset.Set
	locks   *lockTable
	timeout time.Duration
}

// NewSetView wraps base (a linearizable concurrent set) for boosted use
// within tm's transactions. timeout bounds abstract-lock acquisition; 0
// selects a default suitable for tests.
func NewSetView(tm *core.TM, base intset.Set, timeout time.Duration) *SetView {
	if timeout <= 0 {
		timeout = 2 * time.Millisecond
	}
	return &SetView{tm: tm, base: base, locks: newLockTable(), timeout: timeout}
}

// AddTx inserts v into the base set on behalf of tx; the inverse
// operation (remove) is deferred as the compensation.
func (s *SetView) AddTx(tx *core.Tx, v int) (bool, error) {
	s.locks.acquire(tx, v, s.timeout)
	ok, err := s.base.Add(v)
	if err != nil {
		return false, err
	}
	if ok {
		tx.Defer(nil, func() { _, _ = s.base.Remove(v) })
	}
	return ok, nil
}

// RemoveTx deletes v from the base set on behalf of tx; the inverse
// operation (add) is deferred as the compensation.
func (s *SetView) RemoveTx(tx *core.Tx, v int) (bool, error) {
	s.locks.acquire(tx, v, s.timeout)
	ok, err := s.base.Remove(v)
	if err != nil {
		return false, err
	}
	if ok {
		tx.Defer(nil, func() { _, _ = s.base.Add(v) })
	}
	return ok, nil
}

// ContainsTx reads membership on behalf of tx. Reads take the abstract
// lock too (contains commutes with contains, but not with an add/remove
// of the same value).
func (s *SetView) ContainsTx(tx *core.Tx, v int) (bool, error) {
	s.locks.acquire(tx, v, s.timeout)
	return s.base.Contains(v)
}

// EscrowCounter is the escrow-method counter of the paper's [25, 26]: a
// high-traffic aggregate field on which increments and decrements commute.
// Transactions accumulate a private delta that is applied atomically at
// commit, so concurrent updaters never conflict on the counter — the
// database ancestor of the paper's snapshot-style relaxations.
//
// The counter is one atomic word alone on its cache line (counters of one
// owner are allocated back to back; unpadded they would share a line and
// every commit's add would invalidate its neighbours). The pending delta
// lives in the transaction's commit-time delta log (core.Tx.AddOnCommit):
// no shared map, no closure, nothing to allocate or to clean up on abort.
type EscrowCounter struct {
	value atomic.Int64
	_     [56]byte
}

// NewEscrowCounter returns a counter starting at initial.
func NewEscrowCounter(initial int64) *EscrowCounter {
	c := &EscrowCounter{}
	c.value.Store(initial)
	return c
}

// AddTx adds delta on behalf of tx, applied at commit and discarded on
// abort. Concurrent transactions adding to the same counter do not
// conflict.
func (c *EscrowCounter) AddTx(tx *core.Tx, delta int64) {
	tx.AddOnCommit(&c.value, delta)
}

// GetTx returns the counter as seen by tx: the committed value plus tx's
// own pending delta. Unlike a snapshot read this value is weakly
// consistent with respect to other counters — the documented price of the
// escrow relaxation.
func (c *EscrowCounter) GetTx(tx *core.Tx) int64 {
	return c.value.Load() + tx.PendingOnCommit(&c.value)
}

// Value returns the committed value (no transaction required).
func (c *EscrowCounter) Value() int64 {
	return c.value.Load()
}
