package core

import (
	"runtime"
	"slices"
)

// This file is the per-shard participant half of two-phase commit: a
// CrossTx is one TM's sub-transaction of a multi-TM (sharded) atomic
// operation, driven by an external coordinator (internal/shard) instead of
// the Atomically retry loop. The split is exactly prepare/decide:
//
//	Prepare  — acquire versioned locks on every cell the sub-transaction
//	           touched (written AND read, in global cell-id order) and
//	           validate the read set. A prepared participant has proven it
//	           can commit and, crucially, holds that proof: the read locks
//	           make validation durable until the decision. Without them a
//	           read-only participant's validation would be a point-in-time
//	           fact that concurrent commits on its shard could invalidate
//	           while other shards prepare — the classic read-only
//	           participant anomaly, which produces globally unserializable
//	           executions even though every shard's log is serializable.
//	Commit   — install the write set at the coordinator-drawn write
//	           version, release read locks with their cells unchanged.
//	Abort    — release every lock unchanged.
//
// Between Prepare and the decision the participant obeys the coordinator
// ONLY: contention-manager kills are ignored (a killed prepared
// participant that self-aborted could violate the atomicity of a
// coordinator that already decided commit). Blocked readers arbitrate as
// usual and at worst abort themselves and retry; the coordinator decides
// promptly (no user code runs between prepare and decide), so the locks
// are short-lived.
//
// A CrossTx is caller-owned: a coordinator keeps one per shard and restarts
// it in place with TM.BeginCross for every attempt, so the lock list keeps
// its capacity and a warm cross-shard commit allocates nothing. The zero
// value is an idle participant.
type CrossTx struct {
	tm    *TM
	tx    *Tx
	token uint64
	state crossState
	locks []crossLock
	wv    uint64
}

type crossState int

const (
	crossIdle crossState = iota // never begun, committed or aborted
	crossActive
	crossPrepared
)

// crossLock is one entry of the unified prepare lock list: a written cell
// (w indexes the transaction's write set) or a read-only cell (w == -1,
// locked for the prepare window and released unchanged).
type crossLock struct {
	cell    *cell
	prevVer uint64
	w       int
}

// BeginCross starts x as a sub-transaction of a cross-TM atomic operation,
// in place. x must be idle (zero, committed or aborted); it must then be
// driven to exactly one of Commit or Abort (a failed Prepare aborts it
// implicitly). Semantics are Classic: elastic windows and snapshot bounds
// are defined against one clock and have no cross-clock meaning.
//
// Every sub-transaction reads the exact clock. A coordinator retries with
// a fresh sub-transaction, so each of its attempts would otherwise be a
// "first attempt" on a possibly stale recent version (see beginAttempt),
// and a stale stripe could abort the coordinator until a commit happened
// to refresh it.
func (tm *TM) BeginCross(x *CrossTx) {
	if x.state != crossIdle {
		panic("core: BeginCross on a live cross sub-transaction")
	}
	tx := tm.getTx(Classic)
	tx.cross = true
	x.tm, x.tx, x.wv, x.state = tm, tx, 0, crossActive
	// The quiescer bracket spans the whole sub-transaction (clock sample
	// through install), so a Privatize barrier on this TM waits out
	// prepared participants — their pending installs must not slip past
	// the detach epoch.
	x.token = tm.quiesce.enter(tx.idEnd / txIDBatch)
	tx.beginAttempt()
}

// Tx returns the live transaction handle for the active phase. User
// operations (loads, stores, Defer) go through it exactly as inside
// Atomically. The handle is invalid once the sub-transaction finishes.
func (x *CrossTx) Tx() *Tx {
	if x.state == crossIdle {
		panic("core: CrossTx handle used outside BeginCross..Commit/Abort")
	}
	return x.tx
}

// ID returns the sub-transaction's identity within its TM.
func (x *CrossTx) ID() uint64 { return x.tx.id.Load() }

// ReadOnly reports whether the sub-transaction buffered no writes.
func (x *CrossTx) ReadOnly() bool { return len(x.tx.writes) == 0 }

// Resolved reports whether the sub-transaction already reached its end
// state (committed or aborted) or was never begun. A recovery procedure
// resolving the participants of a failed coordinator skips resolved ones.
func (x *CrossTx) Resolved() bool { return x.state == crossIdle }

// Prepared reports whether the sub-transaction is in the prepared state,
// holding its locks and awaiting the coordinator's decision.
func (x *CrossTx) Prepared() bool { return x.state == crossPrepared }

// Prepare drives the sub-transaction to the prepared state: it acquires
// versioned locks on every touched cell — writes and reads merged into
// one ascending cell-id order, the same global order commit.go uses, so
// participants prepared by different coordinators cannot deadlock — and
// validates that every read still holds its recorded version. On success
// the participant holds all locks until Commit or Abort. On failure the
// sub-transaction is fully aborted (locks released unchanged, deltas
// dropped, abort hooks run, handle recycled) and Prepare returns false; the
// coordinator aborts its siblings and retries.
func (x *CrossTx) Prepare() bool {
	if x.state != crossActive {
		panic("core: Prepare on a finished cross sub-transaction")
	}
	tx := x.tx
	if tx.status != statusActive {
		// The attempt already unwound (conflict panic caught by the
		// coordinator's CatchConflict) — nothing is locked.
		x.finishAbort(orExplicit(tx.abortReason))
		return false
	}
	if tx.killed.Load() {
		x.finishAbort(AbortKilled)
		return false
	}

	tx.sortWrites()
	x.locks = x.locks[:0]
	for i := range tx.writes {
		x.locks = append(x.locks, crossLock{cell: tx.writes[i].cell, w: i})
	}
	appendRead := func(c *cell) {
		if tx.findWrite(c) < 0 {
			x.locks = append(x.locks, crossLock{cell: c, w: -1})
		}
	}
	for i := range tx.reads {
		appendRead(tx.reads[i].cell)
	}
	for i := range tx.window {
		appendRead(tx.window[i].cell)
	}
	slices.SortFunc(x.locks, func(a, b crossLock) int {
		switch {
		case a.cell.id < b.cell.id:
			return -1
		case a.cell.id > b.cell.id:
			return 1
		}
		return 0
	})
	// Dedup repeated reads of one cell (a cell appears at most once as a
	// write; the write set is deduplicated at buffer time).
	out := x.locks[:0]
	for i := range x.locks {
		if i > 0 && x.locks[i].cell == x.locks[i-1].cell {
			continue
		}
		out = append(out, x.locks[i])
	}
	x.locks = out

	for i := range x.locks {
		l := &x.locks[i]
		ok := false
		if l.w >= 0 {
			if ok = tx.acquire(&tx.writes[l.w]); ok {
				l.prevVer = tx.writes[l.w].prevVer
			}
		} else {
			l.prevVer, ok = x.acquireRead(l.cell)
		}
		if !ok {
			x.releaseLocks(i)
			x.finishAbort(orExplicit(tx.abortReason))
			return false
		}
	}

	// Validate: every cell the transaction read is now locked by us, so
	// its pre-lock version is the validation target — and stays valid
	// until the coordinator's decision, because the lock holds.
	valid := func(c *cell, ver uint64) bool {
		n, found := slices.BinarySearchFunc(x.locks, c.id, func(l crossLock, id uint64) int {
			switch {
			case l.cell.id < id:
				return -1
			case l.cell.id > id:
				return 1
			}
			return 0
		})
		return found && x.locks[n].prevVer == ver
	}
	for i := range tx.reads {
		if !valid(tx.reads[i].cell, tx.reads[i].ver) {
			x.releaseLocks(len(x.locks))
			x.finishAbort(AbortValidation)
			return false
		}
	}
	for i := range tx.window {
		if !valid(tx.window[i].cell, tx.window[i].ver) {
			x.releaseLocks(len(x.locks))
			x.finishAbort(AbortValidation)
			return false
		}
	}
	x.state = crossPrepared
	return true
}

// acquireRead takes the versioned lock on a read-only cell, mirroring
// Tx.acquire's arbitration (which operates on write-set entries).
func (x *CrossTx) acquireRead(c *cell) (uint64, bool) {
	tx := x.tx
	for round := 0; ; round++ {
		if prev, ok := c.tryLock(tx); ok {
			return prev, true
		}
		if tx.killed.Load() {
			tx.abortReason = AbortKilled
			return 0, false
		}
		if round < tx.tm.spinBudget {
			if round&7 == 7 {
				runtime.Gosched()
			}
			continue
		}
		tx.work.Store(tx.workLocal)
		owner := c.owner.Load()
		if owner == tx {
			return version(c.meta.Load()), true
		}
		switch tx.tm.cm.Arbitrate(tx, owner, round-tx.tm.spinBudget) {
		case DecisionWait:
			runtime.Gosched()
		case DecisionAbortOther:
			if owner != nil {
				owner.Kill()
			}
			runtime.Gosched()
		default:
			tx.abortReason = AbortLockContention
			return 0, false
		}
	}
}

// DrawVersion draws the participant's write version from its TM's clock.
// The coordinator calls it during the decide step, under its decision
// mutex, in canonical shard order — which is what makes per-shard write
// versions of cross-shard commits monotone in the global decision order
// (every clock scheme's sequential draws on one stripe are strictly
// increasing; cross commits all draw from stripe 0). Only meaningful for
// updating participants; read-only ones serialize at their read version.
func (x *CrossTx) DrawVersion() uint64 {
	if x.state != crossPrepared {
		panic("core: DrawVersion on an unprepared cross sub-transaction")
	}
	if len(x.tx.writes) == 0 {
		panic("core: DrawVersion on a read-only cross participant")
	}
	wv, _ := x.tm.clock.Commit(0)
	x.wv = wv
	return wv
}

// Commit applies the coordinator's commit decision: installs the write set
// at the drawn write version, releases read locks with their cells
// unchanged, applies the commit-time deltas, runs Defer commit hooks and
// the TM's durable-ack barrier.
// It deliberately does NOT honour contention-manager kills — a prepared
// participant's fate belongs to the coordinator alone. The returned error
// is the durable-ack verdict (the memory effect stands regardless), nil
// without a durability layer.
func (x *CrossTx) Commit() error {
	if x.state != crossPrepared {
		panic("core: Commit on an unprepared cross sub-transaction")
	}
	tx := x.tx
	if len(tx.writes) > 0 {
		if x.wv == 0 {
			panic("core: Commit before DrawVersion on an updating cross participant")
		}
		// As in commit.go, the reclamation watermark is sampled after the
		// write version was drawn so no pinned snapshot loses a record.
		watermark := x.tm.pins.current()
		for i := range x.locks {
			l := &x.locks[i]
			if l.w >= 0 {
				w := &tx.writes[l.w]
				l.cell.install(w.val, x.wv, x.tm.keep(w), watermark)
				l.cell.unlock(x.wv)
				w.locked = false
			} else {
				l.cell.unlock(l.prevVer)
			}
		}
		tx.commitVer = x.wv
		tx.endAttempt().updateCommits.Add(1)
	} else {
		x.releaseLocks(len(x.locks))
		tx.commitVer = tx.rv
		tx.endAttempt().readOnlyCommits.Add(1)
	}
	tx.finish(statusCommitted)
	tx.record(Event{Kind: EventCommit, TxID: tx.id.Load(), Attempt: tx.attempt,
		Sem: tx.sem, Version: tx.commitVer})
	tx.runCommitHooks()
	x.tm.cm.OnCommit(tx)
	var err error
	if x.tm.durableAck != nil && len(tx.writes) > 0 {
		err = x.tm.durableAck(tx)
	}
	x.recycle()
	return err
}

// Abort applies the coordinator's abort decision (or abandons an active
// sub-transaction): every lock is released with its cell unchanged, the
// commit-time deltas are dropped and the Defer abort hooks run. Idempotent.
func (x *CrossTx) Abort() {
	if x.state == crossIdle {
		return
	}
	if x.state == crossPrepared {
		x.releaseLocks(len(x.locks))
	}
	x.finishAbort(orExplicit(x.tx.abortReason))
}

// releaseLocks releases the first n entries of the lock list, restoring
// each cell's pre-lock version.
func (x *CrossTx) releaseLocks(n int) {
	tx := x.tx
	for i := 0; i < n; i++ {
		l := &x.locks[i]
		l.cell.unlock(l.prevVer)
		if l.w >= 0 {
			tx.writes[l.w].locked = false
		}
	}
}

// finishAbort runs the abort bookkeeping shared by every failure path:
// status, event, compensation hooks, stats, CM notification, recycling.
func (x *CrossTx) finishAbort(reason AbortReason) {
	tx := x.tx
	if tx.status == statusActive {
		tx.finish(statusAborted)
	}
	tx.abortReason = reason
	tx.record(Event{Kind: EventAbort, TxID: tx.id.Load(), Attempt: tx.attempt,
		Sem: tx.sem, Reason: reason})
	tx.runAbortHooks()
	tx.endAttempt().abort(reason)
	x.tm.cm.OnAbort(tx)
	x.recycle()
}

// recycle returns the handle to the pool and fences further use. The lock
// list keeps its capacity for the next BeginCross under the pooled read
// set's retention policy (putTx): it holds only cell pointers, so it is not
// cleared, and an oversized one is dropped.
func (x *CrossTx) recycle() {
	x.tm.quiesce.exit(x.token)
	x.tm.putTx(x.tx)
	x.tx = nil
	if cap(x.locks) > maxPooledEntries {
		x.locks = nil
	}
	x.state = crossIdle
}

// orExplicit defaults an unset abort reason to AbortExplicit (the
// coordinator chose to abort; no conflict was observed).
func orExplicit(r AbortReason) AbortReason {
	if r == 0 {
		return AbortExplicit
	}
	return r
}

// CatchConflict runs fn and converts the runtime's internal control-flow
// unwinds — the conflict panics that Atomically would catch and retry —
// into a returned verdict, for coordinators that drive CrossTx handles
// directly. conflict=true means a read observed a conflict (or user code
// asked to retry): the coordinator should abort all participants and
// retry the whole cross-shard operation. A non-nil err is permanent (a
// user error or a semantics violation) and must not be retried. Other
// panics propagate.
func CatchConflict(fn func() error) (err error, conflict bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch sig := r.(type) {
		case abortSignal:
			conflict = true
		case retrySignal:
			// No wait-set park outside Atomically: surface as a retry and
			// let the coordinator's backoff pace the loop.
			conflict = true
		case permanentError:
			err = sig.err
		default:
			panic(r)
		}
	}()
	return fn(), false
}
