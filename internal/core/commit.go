package core

import (
	"runtime"
	"slices"
)

// commit attempts to make the transaction's writes visible atomically.
// It returns true on success; on failure tx.abortReason is set and all
// acquired locks have been released with their cells unchanged.
//
// Protocol (TL2 with exact-version validation, shared by all semantics):
//
//  1. read-only transactions commit immediately — their reads were
//     validated when they happened (classic: against the start time;
//     elastic: window rule; snapshot: multiversion by construction);
//  2. acquire versioned locks on the write set in global cell-id order
//     (deadlock freedom), arbitrating contention through the CM;
//  3. draw the write version wv from the global clock;
//  4. validate the read set (skippable under a strict clock scheme when
//     wv == rv+1: no concurrent commit happened since the transaction's
//     reads were known valid);
//  5. install new records — keeping the configured number of past
//     versions for snapshot readers — and release the locks at wv.
func (tx *Tx) commit() bool {
	if tx.status != statusActive {
		tx.abortReason = AbortExplicit
		return false
	}
	if tx.killed.Load() {
		return tx.commitFail(0, AbortKilled)
	}
	if len(tx.writes) == 0 {
		tx.finish(statusCommitted)
		tx.commitVer = tx.rv
		tx.endAttempt().readOnlyCommits.Add(1)
		tx.record(Event{Kind: EventCommit, TxID: tx.id.Load(), Attempt: tx.attempt,
			Sem: tx.sem, Version: tx.rv})
		return true
	}

	tx.sortWrites()
	for i := range tx.writes {
		if !tx.acquire(&tx.writes[i]) {
			reason := tx.abortReason
			if reason == 0 {
				reason = AbortLockContention
			}
			return tx.commitFail(i, reason)
		}
	}

	// Draw the write version. Under a strict scheme, wv == rv+1 proves no
	// concurrent commit intervened since the reads were validated, so the
	// read set need not be re-checked; non-strict schemes (adopted/shared
	// versions) must always validate.
	wv, strict := tx.tm.clock.Commit(tx.idEnd / txIDBatch)
	if !strict || wv != tx.rv+1 {
		if !tx.validateReads() {
			return tx.commitFail(len(tx.writes), AbortValidation)
		}
	}
	if tx.killed.Load() {
		return tx.commitFail(len(tx.writes), AbortKilled)
	}

	// The reclamation watermark must be sampled AFTER drawing wv: a pin
	// published before wv was drawn is then guaranteed visible (snapshot.go
	// spells out the ordering argument), so the installs below never
	// recycle a record a pinned snapshot can still reach.
	watermark := tx.tm.pins.current()
	for i := range tx.writes {
		w := &tx.writes[i]
		w.cell.install(w.val, wv, tx.tm.keep(w), watermark)
		w.cell.unlock(wv)
		w.locked = false
	}
	tx.finish(statusCommitted)
	tx.commitVer = wv
	tx.endAttempt().updateCommits.Add(1)
	tx.record(Event{Kind: EventCommit, TxID: tx.id.Load(), Attempt: tx.attempt,
		Sem: tx.sem, Version: wv})
	return true
}

// sortWrites orders the write set by cell ID — the global lock-acquisition
// order shared by single-TM commits and cross-shard prepares. Typical
// write sets are a handful of entries and often already ordered
// (structures walk cells in creation order), so an inline insertion sort
// beats sort.Slice — which costs a closure allocation and reflection-based
// swaps — on every update commit. Write sets past writeScanMax fall back
// to the generic pdqsort to avoid going quadratic, and are re-indexed: the
// index holds positions, and the sort has permuted them.
func (tx *Tx) sortWrites() {
	ws := tx.writes
	if len(ws) <= writeScanMax {
		for i := 1; i < len(ws); i++ {
			for j := i; j > 0 && ws[j].cell.id < ws[j-1].cell.id; j-- {
				ws[j], ws[j-1] = ws[j-1], ws[j]
			}
		}
	} else {
		slices.SortFunc(ws, func(a, b writeEntry) int {
			switch {
			case a.cell.id < b.cell.id:
				return -1
			case a.cell.id > b.cell.id:
				return 1
			}
			return 0
		})
		tx.windex.rebuild(ws)
	}
}

// commitFail releases the first n acquired locks unchanged and records the
// abort.
func (tx *Tx) commitFail(n int, reason AbortReason) bool {
	for i := 0; i < n; i++ {
		w := &tx.writes[i]
		if w.locked {
			w.cell.unlock(w.prevVer)
			w.locked = false
		}
	}
	tx.finish(statusAborted)
	tx.abortReason = reason
	tx.record(Event{Kind: EventAbort, TxID: tx.id.Load(), Attempt: tx.attempt,
		Sem: tx.sem, Reason: reason})
	return false
}

// acquire takes the versioned lock for one write entry, consulting the
// contention manager when the lock is held. It returns false when the
// transaction should abort (reason already set on tx).
func (tx *Tx) acquire(w *writeEntry) bool {
	for round := 0; ; round++ {
		if prev, ok := w.cell.tryLock(tx); ok {
			w.prevVer = prev
			w.locked = true
			return true
		}
		if tx.killed.Load() {
			tx.abortReason = AbortKilled
			return false
		}
		if round < tx.tm.spinBudget {
			if round&7 == 7 {
				runtime.Gosched()
			}
			continue
		}
		tx.work.Store(tx.workLocal) // publish work before arbitration
		owner := w.cell.owner.Load()
		if owner == tx {
			// Duplicate cell in the write set cannot happen (the
			// write set is deduplicated), but guard anyway.
			w.locked = true
			w.prevVer = version(w.cell.meta.Load()) // locked meta keeps version bits
			return true
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
			return false
		}
	}
}

// validateReads checks that every recorded read still holds its exact
// version. Cells locked by this transaction (they are in the write set)
// are validated against the version they carried before we locked them.
// Early-released cells were already removed from the read set.
func (tx *Tx) validateReads() bool {
	if len(tx.reads) == 0 && len(tx.window) == 0 {
		return true
	}
	// Reads of cells we locked ourselves validate against the pre-lock
	// version.
	check := func(c *cell, ver uint64) bool {
		m := c.meta.Load()
		if !isLocked(m) {
			return version(m) == ver
		}
		if i := tx.findWrite(c); i >= 0 && tx.writes[i].locked {
			return tx.writes[i].prevVer == ver
		}
		return false // locked by another transaction
	}
	for i := range tx.reads {
		if !check(tx.reads[i].cell, tx.reads[i].ver) {
			return false
		}
	}
	for _, e := range tx.window {
		if !check(e.cell, e.ver) {
			return false
		}
	}
	return true
}
