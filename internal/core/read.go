package core

import "runtime"

// load is the shared read engine under TypedCell.Load for every T: it
// consults the write set, then dispatches on the transaction's semantics.
// It returns the payload still encoded; the caller decodes.
func (tx *Tx) load(c *cell) vbox {
	tx.checkUsable()
	tx.step()
	if raceEnabled {
		tx.tm.privCheck(c)
	}
	// Read-your-writes. Most reads happen before the first write: the
	// empty write set costs one length test.
	if len(tx.writes) != 0 {
		if i := tx.findWrite(c); i >= 0 {
			return tx.writes[i].val
		}
	}
	switch tx.sem {
	case Snapshot:
		return tx.readSnapshot(c)
	case Elastic:
		if tx.hasWrites {
			return tx.readClassic(c)
		}
		return tx.readElastic(c)
	default:
		return tx.readClassic(c)
	}
}

// waitCell handles an observed lock or torn sample on c during a read:
// it spins within the TM's spin budget, then asks the contention manager.
// It returns normally when the caller should resample, and unwinds the
// attempt when the caller should give up.
func (tx *Tx) waitCell(c *cell, round int) {
	if round < tx.tm.spinBudget {
		if round&7 == 7 {
			runtime.Gosched()
		}
		return
	}
	tx.work.Store(tx.workLocal) // publish work before arbitration
	tx.checkKilled()
	owner := c.owner.Load()
	if owner == tx {
		// We hold this lock (possible only during commit validation,
		// never during user-level reads, which consult the write set
		// first). Treat as available.
		return
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
		tx.abort(AbortLockContention)
	}
}

// readClassic performs an opaque (TL2-style) read: the observed version
// must not exceed the transaction's read version, and the read is recorded
// for commit-time validation.
func (tx *Tx) readClassic(c *cell) vbox {
	for round := 0; ; round++ {
		// The sample bracket is open-coded here (and in readElastic): the
		// shape dispatch pushed cell.sample past the inliner's budget, and
		// a call frame per read is measurable on traversal workloads.
		m1 := c.meta.Load()
		if isLocked(m1) {
			tx.waitCell(c, round)
			continue
		}
		v := c.cur.Load().load(c.shape)
		if c.meta.Load() != m1 {
			tx.waitCell(c, round)
			continue
		}
		ver := version(m1)
		if ver > tx.rv {
			// The location changed after this transaction started:
			// serializing the transaction at its start time is no
			// longer possible. With read extension enabled the
			// transaction may instead slide forward to a newer
			// consistent snapshot; plain TL2 aborts.
			if !tx.tm.extendReads || !tx.extendReadVersion() {
				tx.abort(AbortReadInvalid)
			}
		}
		tx.reads = append(tx.reads, readEntry{cell: c, ver: ver})
		if tx.tm.recorder != nil {
			tx.record(Event{Kind: EventRead, TxID: tx.id.Load(), Attempt: tx.attempt,
				Sem: tx.sem, Cell: c.id, Version: ver})
		}
		return v
	}
}

// readElastic performs an elastic read (before the transaction's first
// write): the new value is sampled consistently, the window of recent
// reads is revalidated, and the oldest window entry beyond the window size
// is cut away. Unlike a classic read there is no bound against the start
// time: reading past a concurrent commit simply starts a new piece.
func (tx *Tx) readElastic(c *cell) vbox {
	for round := 0; ; round++ {
		m1 := c.meta.Load()
		if isLocked(m1) {
			tx.waitCell(c, round)
			continue
		}
		v := c.cur.Load().load(c.shape)
		if c.meta.Load() != m1 {
			tx.waitCell(c, round)
			continue
		}
		ver := version(m1)
		// Validate the window: every recent read must still hold its
		// recorded version, otherwise no consistent cut exists.
		if !tx.windowValid() {
			tx.abort(AbortWindowInvalid)
		}
		// Confirm the new sample still holds after window validation,
		// so that window values and the new value coexist at one
		// instant (the linearization point of this piece extension).
		if c.meta.Load() != ver<<1 {
			continue
		}
		tx.pushWindow(c, ver)
		if tx.tm.recorder != nil {
			tx.record(Event{Kind: EventRead, TxID: tx.id.Load(), Attempt: tx.attempt,
				Sem: tx.sem, Cell: c.id, Version: ver})
		}
		return v
	}
}

// extendReadVersion attempts to slide the transaction's read version to
// the current clock: it succeeds when every past read (and window entry)
// still holds its exact version, proving all observed values coexist at
// the new instant. Returns false when a past read is stale — the conflict
// is real and the caller aborts.
func (tx *Tx) extendReadVersion() bool {
	newRv := tx.tm.clock.Now()
	for i := range tx.reads {
		m := tx.reads[i].cell.meta.Load()
		if isLocked(m) || version(m) != tx.reads[i].ver {
			return false
		}
	}
	if !tx.windowValid() {
		return false
	}
	tx.rv = newRv
	tx.extensions++
	return true
}

// windowValid checks that every window entry still carries its recorded
// version and is not locked by another transaction.
func (tx *Tx) windowValid() bool {
	for _, e := range tx.window {
		m := e.cell.meta.Load()
		if isLocked(m) {
			if e.cell.owner.Load() != tx {
				return false
			}
			continue
		}
		if version(m) != e.ver {
			return false
		}
	}
	return true
}

// pushWindow appends a read to the elastic window, cutting the oldest
// entry when the window overflows. A repeated read of a cell already in
// the window refreshes its position instead of duplicating it. The window
// is maintained in one left-shifting pass per push — no per-entry splices,
// which would go quadratic under window churn on long traversals.
func (tx *Tx) pushWindow(c *cell, ver uint64) {
	w := tx.window
	for i := range w {
		if w[i].cell == c {
			// Refresh: slide the newer entries left over the stale one
			// and reuse its slot at the end.
			copy(w[i:], w[i+1:])
			w[len(w)-1] = readEntry{cell: c, ver: ver}
			return
		}
	}
	if len(w) >= tx.tm.windowSize {
		// Cut: evict the oldest entries in the same shift that makes room
		// for the new one.
		drop := len(w) - tx.tm.windowSize + 1
		copy(w, w[drop:])
		w[len(w)-drop] = readEntry{cell: c, ver: ver}
		tx.window = w[:len(w)-drop+1]
		tx.cuts += drop
		tx.record(Event{Kind: EventCut, TxID: tx.id.Load(), Attempt: tx.attempt, Sem: tx.sem})
		return
	}
	tx.window = append(w, readEntry{cell: c, ver: ver})
}

// readSnapshot returns the value current at the transaction's start time,
// falling back to the retained older version when the location has been
// overwritten since. Snapshot reads wait out writers holding the lock (the
// writer published its write version before locking was released, so
// reading under the lock could tear a commit), but never abort them. A
// pinned read skips the wait on a cell already past the pin.
func (tx *Tx) readSnapshot(c *cell) vbox {
	var (
		ver, cur uint64
		v        vbox
		ok       bool
	)
	if tx.pinned {
		// A cell that has moved past the pin is read without waiting or
		// retrying (see the rec contract).
		ver, cur, v, ok = c.samplePinned(tx.ub)
	}
	for round := 0; !ok; round++ {
		var tooOld bool
		if ver, cur, v, ok, tooOld = c.sampleAt(tx.ub); !ok {
			tx.waitCell(c, round)
			continue
		}
		if tooOld {
			// Every retained version is newer than our snapshot:
			// updaters only keep finitely many versions.
			tx.abort(AbortSnapshotTooOld)
		}
	}
	if ver != cur {
		tx.snapshotOld++
	}
	if tx.tm.recorder != nil {
		tx.record(Event{Kind: EventRead, TxID: tx.id.Load(), Attempt: tx.attempt,
			Sem: tx.sem, Cell: c.id, Version: ver})
	}
	return v
}
