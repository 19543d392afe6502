package core

import (
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// txStatus tracks the lifecycle of a transaction handle.
type txStatus int

const (
	statusIdle txStatus = iota
	statusActive
	statusCommitted
	statusAborted
)

// readEntry remembers one validated read: the cell and the version whose
// value the transaction observed. Validation is exact-version: the entry is
// valid as long as the cell still carries that version. Entries reference
// the untyped cell engine, so reads of every TypedCell[T] instantiation
// land in one homogeneous read set.
type readEntry struct {
	cell *cell
	ver  uint64
}

// writeEntry buffers one write (redo log) in the engine's encoded form:
// typed stores park their payload here without boxing. prevVer holds the
// version the cell carried when this transaction locked it at commit, used
// to restore the cell on abort and to validate reads of self-locked cells.
// final asks the install to keep no history behind the new record
// (TypedCell.StoreFinal).
type writeEntry struct {
	cell    *cell
	val     vbox
	prevVer uint64
	locked  bool
	final   bool
}

// Tx is a transaction in progress. Handles are created by TM.Atomically
// and are only valid inside the closure they are passed to; they are not
// safe for concurrent use by multiple goroutines.
//
// One Tx value is reused across the retries of a single Atomically call so
// contention managers can accumulate per-transaction state (age, karma)
// across attempts. Handles are additionally recycled across Atomically
// calls through the TM's pool (with a fresh identity each time), which is
// what makes the read-only transaction lifecycle allocation-free.
//
// Recycling sharpens the "only valid inside the closure" contract: a
// handle retained past its Atomically call soon becomes another
// transaction's live handle, so out-of-contract use that previously
// panicked deterministically (checkUsable) may instead alias the new
// transaction. Never stash a *Tx. The same holds for a cross-shard
// coordinator's *shard.MultiTx, which is pooled the same way.
type Tx struct {
	tm      *TM
	sem     Semantics
	attempt int

	// idNext/idEnd are the handle's private block of pre-drawn transaction
	// IDs ([idNext, idEnd)); refilled from the TM's global counter once per
	// txIDBatch transactions so the counter's cache line stays quiet.
	idNext, idEnd uint64

	rv uint64 // read version: classic start time / elastic piece start
	ub uint64 // snapshot upper bound

	// reads is the validated read set (exact version). It is a plain
	// append-only slice: duplicates are allowed (they validate equal) and
	// linear structures read each cell once, so a dedup index would cost
	// more than it saves on the hot path.
	reads  []readEntry
	writes []writeEntry
	windex writeIndex  // cell → position in writes, past writeScanMax entries
	window []readEntry // elastic sliding window (oldest first)
	// released holds early-released cells; allocated lazily since early
	// release is a rare expert operation.
	released map[*cell]struct{}

	// pinned marks a transaction running under a SnapshotPin: every
	// attempt reads at the fixed upper bound pinVer instead of sampling
	// the clock (snapshot.go).
	pinned bool
	pinVer uint64
	// cross marks a sub-transaction of a cross-TM operation (BeginCross),
	// whose attempts all read the exact clock.
	cross bool

	hasWrites   bool
	status      txStatus
	abortReason AbortReason
	// commitVer is the version the last successful commit installed (the
	// write version of an update commit, the read version of a read-only
	// one). It is what redo sinks and Defer commit hooks read through
	// CommitVersion to stamp externalized effects — a write-ahead log
	// record, an escrow publication — with the transaction's
	// serialization point.
	commitVer uint64
	// Per-read stat tallies of the current attempt, folded into the TM's
	// stats once, when the attempt ends (endAttempt).
	cuts        int
	snapshotOld uint64
	extensions  uint64
	rnd         uint64 // xorshift state for backoff jitter
	// Deferred side-effect hooks for the current attempt (transactional
	// boosting): see Tx.Defer.
	onCommit []func()
	onAbort  []func()
	// deltas is the attempt's commit-time delta log: see Tx.AddOnCommit.
	deltas []counterDelta
	// redo is the attempt's redo log, one entry per log sink: see Tx.Redo.
	// Entries past len keep their buffers for the next attempt and the next
	// pooled reuse.
	redo []RedoLog
	// workLocal counts reads+writes of the current attempt; it is
	// flushed into the atomic work counter every flushEvery steps (and at
	// arbitration points) so contention managers see a close-enough
	// estimate without an atomic add on every memory access.
	workLocal int64

	// Fields below are read concurrently by contention managers (which may
	// hold a stale owner pointer to a handle that has since been recycled
	// for a new transaction, so identity and age are atomics too: a stale
	// reader gets a heuristically wrong but race-free answer). The resets
	// of age, killed, priority and work load first and store only on a
	// change: each is almost always already at its new value, and a store
	// is a locked exchange.
	id       atomic.Uint64
	age      atomic.Uint64 // clock sample of the call's first attempt; age-based CMs
	killed   atomic.Bool
	priority atomic.Int64 // karma accumulated across attempts
	work     atomic.Int64 // reads+writes performed in this attempt
}

// txIDBatch is how many transaction identities a pooled handle draws from
// the TM's global counter at once. 64 turns the per-transaction global
// fetch-and-add into one every 64 transactions.
const txIDBatch = 64

// begin stamps the handle with a fresh identity and per-call state; it is
// the reset point of the pooled-transaction lifecycle.
func (tx *Tx) begin(sem Semantics) {
	if tx.idNext == tx.idEnd {
		tx.idNext, tx.idEnd = drawBlock(&tx.tm.nextTxID, txIDBatch)
	}
	id := tx.idNext
	tx.idNext++
	tx.id.Store(id)
	tx.sem = sem
	tx.attempt = 0
	tx.status = statusIdle
	tx.pinned = false
	tx.pinVer = 0
	tx.cross = false
	if tx.priority.Load() != 0 {
		tx.priority.Store(0)
	}
	tx.rnd = id*2654435761 + 0x9e3779b97f4a7c15
}

// newTx allocates a fresh, unpooled handle — the escape hatch for
// white-box tests that drive the protocol below Atomically. The runtime
// itself recycles handles through TM.getTx/putTx.
func newTx(tm *TM, sem Semantics) *Tx {
	tx := &Tx{tm: tm}
	tx.begin(sem)
	return tx
}

// ID returns the transaction's unique identity within its TM. The identity
// is stable across retries of the same Atomically call.
func (tx *Tx) ID() uint64 { return tx.id.Load() }

// Semantics returns the semantics label the transaction was started with.
func (tx *Tx) Semantics() Semantics { return tx.sem }

// TM returns the runtime that owns this transaction. Components that
// accept a *Tx from the caller (caches, persistence hooks) use it to
// verify the handle belongs to the TM they were built on — with several
// TMs in one process, wiring a transaction from one TM into hooks of
// another would corrupt both.
func (tx *Tx) TM() *TM { return tx.tm }

// Attempt returns the 1-based attempt number of the current run.
func (tx *Tx) Attempt() int { return tx.attempt }

// Age returns the transaction's logical age: the clock value its call's
// first attempt sampled (for a pinned snapshot, the pin version). It is
// set once per Atomically call and kept across retries, so a smaller age
// means an older transaction. Calls with no commit between their starts
// may tie; age-based contention managers (Greedy, Timestamp) break ties
// by ID.
func (tx *Tx) Age() uint64 { return tx.age.Load() }

// flushEvery is how many accesses may pass between flushes of the local
// work counter (and checks of the kill flag) on the read fast path.
const flushEvery = 32

// step accounts one shared-memory access; every flushEvery steps it
// publishes the work estimate and honours pending kills. Keeping these
// off the per-access fast path matters: a transactional list traversal is
// thousands of reads, and an atomic RMW per read would dominate it.
func (tx *Tx) step() {
	tx.workLocal++
	if tx.workLocal%flushEvery == 0 {
		tx.work.Store(tx.workLocal)
		tx.checkKilled()
	}
}

// Work returns an approximation of the work invested in the current
// attempt (reads + writes), used by Karma-style contention managers. The
// estimate lags the true count by at most flushEvery accesses.
func (tx *Tx) Work() int64 { return tx.work.Load() }

// Priority returns the karma accumulated across the transaction's aborted
// attempts.
func (tx *Tx) Priority() int64 { return tx.priority.Load() }

// AddPriority accumulates karma; contention managers call it from their
// OnAbort hook so work invested in failed attempts is not forgotten.
func (tx *Tx) AddPriority(delta int64) { tx.priority.Add(delta) }

// Kill asks the transaction to abort at its next validation point. It is
// the cooperative-kill primitive used by aggressive contention managers.
func (tx *Tx) Kill() {
	if !tx.killed.Swap(true) {
		tx.tm.stats.kills.Add(1)
	}
}

// Killed reports whether a kill was requested.
func (tx *Tx) Killed() bool { return tx.killed.Load() }

// Cuts returns how many elastic cuts the current attempt performed.
func (tx *Tx) Cuts() int { return tx.cuts }

// beginAttempt resets per-attempt state and samples the clock.
func (tx *Tx) beginAttempt() {
	tx.attempt++
	tx.status = statusActive
	tx.abortReason = 0
	tx.commitVer = 0
	tx.hasWrites = false
	tx.cuts, tx.snapshotOld, tx.extensions = 0, 0, 0
	if tx.killed.Load() {
		tx.killed.Store(false)
	}
	if tx.work.Load() != 0 {
		tx.work.Store(0)
	}
	tx.workLocal = 0
	tx.reads = tx.reads[:0]
	tx.writes = truncate(tx.writes)
	tx.window = tx.window[:0]
	if tx.released != nil {
		clear(tx.released)
	}
	tx.onCommit = truncate(tx.onCommit)
	tx.onAbort = truncate(tx.onAbort)
	tx.deltas = truncate(tx.deltas)
	tx.redo = tx.redo[:0]
	var now uint64
	switch {
	case tx.pinned:
		// Pinned snapshot: every attempt reads at the pin's version.
		now = tx.pinVer
	case tx.sem != Snapshot && tx.attempt == 1 && !tx.cross:
		// First attempts of classic and elastic transactions take a
		// recently published version instead of the exact clock — under
		// GVSharded one padded load of the handle's own commit stripe
		// rather than the O(stripes) scan. A stale read version is sound
		// (validation against it only aborts more) and the stripe doubles
		// as a per-P commit cache: this handle's own commits refresh it,
		// so read-your-own-commits freshness is exact. Retries resample
		// the true clock, which bounds the extra aborts staleness can
		// cause to one per transaction. That holds on both commit paths:
		// Atomically retries on the same handle (attempt > 1), and a
		// cross-shard coordinator retries with a fresh sub-transaction,
		// so every cross sub-transaction takes the exact clock.
		now = tx.tm.clock.NowRecent(tx.idEnd / txIDBatch)
	default:
		// Snapshot transactions always pay for the exact clock: their ub
		// is their serialization point, and a stale ub would serialize
		// them before operations that completed earlier in real time.
		// Under GV1, the default scheme, Now and NowRecent are one load.
		now = tx.tm.clock.Now()
	}
	tx.rv = now
	tx.ub = now
	if tx.attempt == 1 && tx.age.Load() != now {
		tx.age.Store(now)
	}
	tx.record(Event{Kind: EventBegin, TxID: tx.id.Load(), Attempt: tx.attempt, Sem: tx.sem,
		Version: now})
}

// run executes the user closure, converting internal abort unwinds into
// errRetryAttempt and semantics violations into their permanent error.
func (tx *Tx) run(fn func(*Tx) error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch sig := r.(type) {
		case abortSignal:
			tx.finish(statusAborted)
			tx.record(Event{Kind: EventAbort, TxID: tx.id.Load(), Attempt: tx.attempt,
				Sem: tx.sem, Reason: sig.reason})
			err = errRetryAttempt
		case retrySignal:
			// Status stays active until the engine captures the wait
			// set; the recorder sees an abort (the attempt's accesses
			// do not commit).
			tx.record(Event{Kind: EventAbort, TxID: tx.id.Load(), Attempt: tx.attempt,
				Sem: tx.sem, Reason: AbortExplicit})
			err = errBlockRetry
		case permanentError:
			tx.finish(statusAborted)
			tx.record(Event{Kind: EventAbort, TxID: tx.id.Load(), Attempt: tx.attempt,
				Sem: tx.sem, Reason: AbortSemantics})
			err = sig
		default:
			tx.endAttempt().parked.Add(1)
			panic(r)
		}
	}()
	return fn(tx)
}

// abort unwinds the attempt with the given reason, which stays in the
// handle for whichever end books the abort: Atomically's retry loop, or
// CrossTx.Abort after a coordinator's CatchConflict. Only call from the
// transaction's own goroutine.
func (tx *Tx) abort(reason AbortReason) {
	tx.abortReason = reason
	panic(abortSignal{reason: reason})
}

// checkKilled aborts the attempt when a contention manager killed us.
func (tx *Tx) checkKilled() {
	if tx.killed.Load() {
		tx.abort(AbortKilled)
	}
}

// checkUsable panics on use of a finished handle: that is an API misuse of
// the same kind as unlocking an unlocked mutex, and like the standard
// library the runtime fails loudly rather than corrupting memory.
func (tx *Tx) checkUsable() {
	if tx.status != statusActive {
		panic("core: transaction handle used outside its Atomically block")
	}
}

// finish moves the handle out of the active state.
func (tx *Tx) finish(st txStatus) {
	tx.status = st
}

// Restart voluntarily aborts the attempt and retries from scratch. It is
// useful for optimistic "wait for a state change" loops in examples.
func (tx *Tx) Restart() {
	tx.checkUsable()
	tx.abort(AbortExplicit)
}

// release is the early-release engine under TypedCell.Release.
func (tx *Tx) release(c *cell) {
	tx.checkUsable()
	if tx.released == nil {
		tx.released = make(map[*cell]struct{}, 2)
	}
	tx.released[c] = struct{}{}
	tx.reads = compactOut(tx.reads, c)
	tx.window = compactOut(tx.window, c)
}

// compactOut removes every entry for cell c in one in-place pass,
// preserving order. The splice-per-hit alternative is quadratic when a
// cell recurs (repeated reads of a hot location before its release).
func compactOut(entries []readEntry, c *cell) []readEntry {
	out := entries[:0]
	for _, e := range entries {
		if e.cell != c {
			out = append(out, e)
		}
	}
	return out
}

// Defer registers side-effect hooks for the current attempt: onCommit
// runs once after the attempt commits; onAbort runs if the attempt aborts
// for any reason (conflict, kill, user error, blocking retry). Either may
// be nil. Hooks run outside the transaction, in registration order for
// commits and reverse order for aborts (like compensations).
//
// This is the integration point for open-nesting-style extensions
// (transactional boosting — the relaxation of the paper's section 4.1 and
// reference [39]): an operation applies its effect eagerly on a concurrent
// object, takes an abstract lock, and defers the inverse operation as the
// abort hook. An effect that is only "add to a counter" needs no closure:
// see AddOnCommit.
func (tx *Tx) Defer(onCommit, onAbort func()) {
	tx.checkUsable()
	if onCommit != nil {
		tx.onCommit = append(tx.onCommit, onCommit)
	}
	if onAbort != nil {
		tx.onAbort = append(tx.onAbort, onAbort)
	}
}

// counterDelta is one entry of the commit-time delta log: delta is added to
// *c if the attempt commits.
type counterDelta struct {
	c     *atomic.Int64
	delta int64
}

// AddOnCommit adds delta to *c if, and only if, the current attempt
// commits — the escrow method of the paper's [25, 26] as a primitive of the
// handle. The pending delta lives in the transaction, not in shared
// memory: adders never conflict, an aborted attempt (conflict, kill, user
// error, blocking Retry, an abandoned OrElse branch, a cross-shard abort)
// leaves no trace, and a commit applies each touched counter with one
// atomic add, before the Defer commit hooks and the durable-ack barrier.
// Deltas are no writes: a transaction that only bumps counters still
// commits read-only. Repeated adds to one counter merge by linear scan —
// a transaction touches a handful of counters — and the log recycles with
// the pooled handle, so a warm add allocates nothing.
func (tx *Tx) AddOnCommit(c *atomic.Int64, delta int64) {
	tx.checkUsable()
	for i := range tx.deltas {
		if tx.deltas[i].c == c {
			tx.deltas[i].delta += delta
			return
		}
	}
	tx.deltas = append(tx.deltas, counterDelta{c, delta})
}

// PendingOnCommit returns the delta the current attempt has accumulated
// for c through AddOnCommit, so a transaction can read its own counter
// updates.
func (tx *Tx) PendingOnCommit(c *atomic.Int64) int64 {
	for i := range tx.deltas {
		if tx.deltas[i].c == c {
			return tx.deltas[i].delta
		}
	}
	return 0
}

// RedoSink is a log that externalizes committed write sets — the
// write-ahead log of a durable map. Operations encode themselves into the
// attempt's RedoLog for the sink (Tx.Redo); the runtime hands the log over
// only if the attempt commits.
type RedoSink interface {
	// CommitRedo receives the redo log of a committed attempt, once, on
	// the committing goroutine, after the delta log and before the Defer
	// commit hooks and the durable-ack barrier; tx.CommitVersion is valid.
	// The log's bytes belong to the handle, which reuses them for its
	// next transaction, so a sink keeps a copy, not log.Buf. The
	// returned ticket stays in the handle (RedoLog.Ticket) for the
	// barrier to redeem.
	CommitRedo(tx *Tx, log *RedoLog) (ticket uint64)
}

// RedoLog is one sink's share of an attempt's redo log.
type RedoLog struct {
	// Buf holds the attempt's operations in the sink's own encoding. Its
	// capacity survives retries and the pooled handle's reuse, so a warm
	// logged write allocates nothing.
	Buf []byte
	// Err is the attempt's first logging failure, e.g. a value the codec
	// cannot encode. The commit still stands; the sink reports Err
	// through its durable ack.
	Err    error
	sink   RedoSink
	ticket uint64
}

// Ticket returns what the sink's CommitRedo returned for this log.
func (r *RedoLog) Ticket() uint64 { return r.ticket }

// maxPooledRedoBytes caps the redo buffer a pooled handle keeps: a bulk
// load must not pin its encoded write set in the pool.
const maxPooledRedoBytes = 64 << 10

// Redo returns the current attempt's redo log for sink, opening an empty
// one on the attempt's first call. Like the delta log it lives in the
// handle, not in shared memory: every way an attempt ends without
// committing (conflict, kill, user error, Restart, blocking Retry, an
// abandoned OrElse branch, a cross-shard abort) empties it, and a commit
// hands it to the sink exactly once, on both commit paths. A transaction
// logs into a handful of sinks at most, so the lookup is a linear scan.
func (tx *Tx) Redo(sink RedoSink) *RedoLog {
	tx.checkUsable()
	for i := range tx.redo {
		if tx.redo[i].sink == sink {
			return &tx.redo[i]
		}
	}
	n := len(tx.redo)
	tx.redo = slices.Grow(tx.redo, 1)[:n+1] // a pooled slot keeps its buffer
	r := &tx.redo[n]
	r.sink, r.Buf, r.Err, r.ticket = sink, r.Buf[:0], nil, 0
	return r
}

// CommittedRedo returns the redo log the committed attempt handed to sink,
// or nil when the transaction has not committed or logged nothing there.
// It is the durable-ack barrier's view of the ticket.
func (tx *Tx) CommittedRedo(sink RedoSink) *RedoLog {
	if tx.status != statusCommitted {
		return nil
	}
	for i := range tx.redo {
		if tx.redo[i].sink == sink {
			return &tx.redo[i]
		}
	}
	return nil
}

// CommitVersion returns the global version at which the transaction's
// last successful commit serialized: the write version drawn at commit for
// an update transaction, the validated read version for a read-only one.
// It is meaningful only after the attempt committed — inside
// RedoSink.CommitRedo, Defer's onCommit hooks and a TM durable-ack
// callback — and is 0 before then. This is the plumbing that lets a redo
// sink stamp its record with the exact serialization point the recorder
// would report for the same commit.
func (tx *Tx) CommitVersion() uint64 { return tx.commitVer }

// runCommitHooks applies the delta log, hands each redo log to its sink,
// then fires deferred commit actions in registration order. Both commit
// paths (Atomically, CrossTx.Commit) end here, exactly once per committed
// transaction. The redo logs stay in the handle with their tickets for
// the durable-ack barrier.
func (tx *Tx) runCommitHooks() {
	for _, d := range tx.deltas {
		d.c.Add(d.delta)
	}
	tx.deltas = truncate(tx.deltas)
	for i := range tx.redo {
		r := &tx.redo[i]
		r.ticket = r.sink.CommitRedo(tx, r)
	}
	for _, fn := range tx.onCommit {
		fn()
	}
	tx.onCommit = truncate(tx.onCommit)
	tx.onAbort = truncate(tx.onAbort)
}

// runAbortHooks drops the delta and redo logs and fires deferred
// compensations in reverse registration order. Every way an attempt (or an
// OrElse branch) ends without committing passes through here.
func (tx *Tx) runAbortHooks() {
	tx.deltas = truncate(tx.deltas)
	tx.redo = tx.redo[:0]
	for i := len(tx.onAbort) - 1; i >= 0; i-- {
		tx.onAbort[i]()
	}
	tx.onCommit = truncate(tx.onCommit)
	tx.onAbort = truncate(tx.onAbort)
}

// truncate empties s for reuse and zeroes the entries it held, so a
// buffer's tail past its length is always zero. The value- and
// closure-bearing buffers (writes, deltas, Defer hooks) are only ever
// shortened through it: putTx then clears just what the call used, and an
// idle pooled handle pins no user values.
func truncate[E any](s []E) []E {
	clear(s)
	return s[:0]
}

// record forwards an event to the TM's recorder, if any.
func (tx *Tx) record(ev Event) {
	if tx.tm.recorder != nil {
		tx.tm.recorder.Record(ev)
	}
}

// timerFloor is the shortest wait handed to time.Sleep. A sleeping
// goroutine whose P goes idle is woken by the netpoller, whose timeout has
// millisecond resolution: time.Sleep(500ns) was measured at 330 µs and
// time.Sleep(50µs) at 1.15 ms, which turned every conflict under the
// 0.5–100 µs backoff windows into a millisecond stall.
const timerFloor = time.Millisecond

// The retry backoff window: backoffBase doubled per attempt, capped at
// backoffMax.
const (
	backoffBase = 500 * time.Nanosecond
	backoffMax  = 100 * time.Microsecond
)

// backoffWait waits for a randomized exponentially growing duration
// between retries, bounded by the backoff window. Waits the timer
// cannot honour yield the processor instead of sleeping (Pause).
func (tx *Tx) backoffWait() {
	shift := tx.attempt
	if shift > 16 {
		shift = 16
	}
	window := backoffBase << uint(shift)
	if window > backoffMax {
		window = backoffMax
	}
	// xorshift64 jitter: wait a uniform fraction of the window.
	tx.rnd ^= tx.rnd << 13
	tx.rnd ^= tx.rnd >> 7
	tx.rnd ^= tx.rnd << 17
	Pause(time.Duration(tx.rnd % uint64(window)))
}

// Pause waits for d between the retries of a conflicting operation: a
// sleep when the timer can honour d, and otherwise yields of the
// processor until a monotonic deadline. It is the one wait under the
// retry backoff of Atomically and of shard.AtomicallyAll.
func Pause(d time.Duration) {
	if d >= timerFloor {
		time.Sleep(d)
		return
	}
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}
