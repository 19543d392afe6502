package shard

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/history"
)

// errCoordinatorCrashed is returned by AtomicallyAll when the white-box
// crash hook abandons the protocol mid-flight (tests only).
var errCoordinatorCrashed = errors.New("shard: coordinator crashed")

// MultiTx is the handle of one cross-shard transaction: a lazy vector of
// per-shard sub-transactions, owned by value, one per shard. Shards the
// closure never touches never learn the transaction existed.
//
// A MultiTx is recycled through its partition's pool when AtomicallyAll
// returns, and its sub-transactions are restarted in place on every
// attempt, which is what makes a warm cross-shard commit allocation-free.
// Like *core.Tx, the handle is valid only inside the closure it is passed
// to: one retained past its AtomicallyAll call soon becomes another
// transaction's live handle. Never stash a *MultiTx.
type MultiTx struct {
	p    *Partition
	subs []core.CrossTx
}

// Shard returns the transaction handle for shard i, beginning the shard's
// sub-transaction on first touch. All loads and stores of shard i's cells
// must go through this handle.
func (m *MultiTx) Shard(i int) *core.Tx {
	x := &m.subs[i]
	if x.Resolved() {
		m.p.tms[i].BeginCross(x)
	}
	return x.Tx()
}

// ShardForKey routes a key within this transaction — sugar for
// m.Shard(m.p.ShardForKey(key)) callers that also need the index.
func (m *MultiTx) ShardForKey(key int) (int, *core.Tx) {
	i := m.p.ShardForKey(key)
	return i, m.Shard(i)
}

// AtomicallyAll runs fn as one atomic transaction spanning any subset of
// shards, retrying conflicts until it commits. Semantics are Classic on
// every touched shard; atomicity across shards is two-phase commit:
//
//	prepare — each touched shard's sub-transaction validates its reads
//	          and locks every touched cell, in ascending shard order
//	          (canonical order: no two coordinators can deadlock);
//	decide  — under the partition's decision mutex, the coordinator
//	          assigns the global sequence number and draws each updating
//	          participant's write version from its shard's clock;
//	commit  — each participant installs at its drawn version; read locks
//	          release unchanged.
//
// A non-nil error from fn aborts every sub-transaction and is returned
// without retrying, as in core.TM.Atomically. fn may run multiple times
// and must be side-effect free outside the transaction; Tx.Defer hooks on
// any sub-transaction fire with the decision.
//
// Single-shard work should prefer Partition.Atomically: the fast path
// commits entirely inside one TM and never touches the decision mutex.
func (p *Partition) AtomicallyAll(fn func(*MultiTx) error) error {
	m, _ := p.multis.Get().(*MultiTx)
	if m == nil {
		m = &MultiTx{p: p, subs: make([]core.CrossTx, len(p.tms))}
	}
	rnd := backoffSeed.Add(0x9e3779b97f4a7c15)
	for attempt := 1; ; attempt++ {
		// Every sub-transaction is resolved here: each way an attempt
		// ends below commits or aborts all of them, except a crash, which
		// abandons m instead of pooling it.
		err, conflict := core.CatchConflict(func() error { return fn(m) })
		switch {
		case err != nil:
			m.abortAll()
			p.multis.Put(m)
			return err
		case !conflict:
			if p.crash("run", -1, m) {
				return errCoordinatorCrashed
			}
			prepared, crashed := m.prepareAll()
			if crashed {
				return errCoordinatorCrashed
			}
			if prepared {
				err := m.commitAll()
				if err != errCoordinatorCrashed {
					p.multis.Put(m)
				}
				return err
			}
		default:
			m.abortAll()
		}
		if p.maxRetries > 0 && attempt >= p.maxRetries {
			p.multis.Put(m)
			return fmt.Errorf("cross-shard transaction after %d attempts: %w", attempt, core.ErrRetryLimit)
		}
		rnd = backoff(rnd, attempt)
	}
}

// prepareAll drives every begun sub-transaction to the prepared state in
// ascending shard order. On a prepare failure (the failing participant has
// already aborted itself) it aborts all siblings and reports
// prepared=false so the coordinator retries.
func (m *MultiTx) prepareAll() (prepared, crashed bool) {
	for i := range m.subs {
		x := &m.subs[i]
		if x.Resolved() {
			continue
		}
		if !x.Prepare() {
			m.abortAll()
			return false, false
		}
		if m.p.crash("prepared", i, m) {
			return false, true
		}
	}
	return true, false
}

// commitAll is the decide step plus participant commits. The decision
// mutex covers sequence assignment and every DrawVersion so that, per
// shard, cross-shard write versions are drawn in global decision order;
// the installs themselves happen outside the mutex (the locks held since
// prepare keep them safe).
func (m *MultiTx) commitAll() error {
	p := m.p
	var parts []history.CrossPart
	p.decideMu.Lock()
	p.seq++
	seq := p.seq
	for i := range m.subs {
		x := &m.subs[i]
		if x.Resolved() {
			continue
		}
		if x.ReadOnly() {
			if p.auditOn {
				parts = append(parts, history.CrossPart{Shard: i, TxID: x.ID(), ReadOnly: true})
			}
			continue
		}
		wv := x.DrawVersion()
		if p.auditOn {
			parts = append(parts, history.CrossPart{Shard: i, TxID: x.ID(), Version: wv})
		}
	}
	p.decideMu.Unlock()
	if p.auditOn && parts != nil {
		p.auditMu.Lock()
		p.audit = append(p.audit, history.CrossDecision{Seq: seq, Parts: parts})
		p.auditMu.Unlock()
	}
	if p.crash("decided", -1, m) {
		return errCoordinatorCrashed
	}
	var firstErr error
	for i := range m.subs {
		x := &m.subs[i]
		if x.Resolved() {
			continue
		}
		if err := x.Commit(); err != nil && firstErr == nil {
			// A durable-ack failure: the memory effect stands; report it.
			firstErr = err
		}
		if p.crash("committed", i, m) {
			return errCoordinatorCrashed
		}
	}
	return firstErr
}

// abortAll aborts every begun sub-transaction (idempotent per CrossTx).
func (m *MultiTx) abortAll() {
	for i := range m.subs {
		m.subs[i].Abort()
	}
}

// backoff waits a jittered, exponentially growing duration between
// cross-shard retries, mirroring the single-TM engine's policy.
func backoff(rnd uint64, attempt int) uint64 {
	shift := attempt
	if shift > 16 {
		shift = 16
	}
	window := crossBackoffBase << uint(shift)
	if window > crossBackoffMax {
		window = crossBackoffMax
	}
	rnd ^= rnd << 13
	rnd ^= rnd >> 7
	rnd ^= rnd << 17
	core.Pause(time.Duration(rnd % uint64(window)))
	return rnd
}
