package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/clock"
)

// Default tuning values; all are overridable through Options.
const (
	defaultKeepVersions = 2  // the paper: "two versions were maintained"
	defaultWindowSize   = 2  // elastic window, per epsilon-STM
	defaultSpinBudget   = 64 // spins before consulting the CM on a lock
	defaultPatience     = 16 // default CM: waits before aborting self
)

// TM is a transactional memory runtime: a clock, a contention manager and
// the tuning knobs shared by every transaction and cell it creates.
//
// One TM corresponds to one shared-memory domain. Cells created by a TM
// must only be accessed through transactions of the same TM, because
// version numbers are meaningful only against one clock.
type TM struct {
	clock        *clock.Clock
	cm           ContentionManager
	recorder     Recorder
	keepVersions int
	windowSize   int
	maxRetries   int
	spinBudget   int
	extendReads  bool
	durableAck   func(tx *Tx) error

	stats      counters
	nextCellID padUint64 // drained in blocks of cellIDBatch via cellIDs
	nextTxID   padUint64 // drained in blocks of txIDBatch by pooled handles

	// pins registers active snapshot pins; its cached watermark bounds
	// version-record reclamation (see snapshot.go and cell.retire).
	pins pinRegistry

	// quiesce tracks in-flight attempts for Privatize's drain barrier;
	// privMu serializes Privatize calls (each barrier flips a generation);
	// priv is the race-build registry of detached cells behind the
	// privatization guard rails. See privatize.go.
	quiesce quiescer
	privMu  sync.Mutex
	priv    privGuard

	// txPool recycles Tx handles (and their read/write/window sets) across
	// Atomically calls: with it, a read-only transaction allocates nothing.
	txPool sync.Pool
	// cellIDs recycles *cellIDBlock allocators so cell initialization
	// touches the global counter once per cellIDBatch cells instead of
	// every call.
	cellIDs sync.Pool
}

// cellIDBatch is how many cell identities one pooled allocator block draws
// from the global counter at a time.
const cellIDBatch = 64

// cellIDBlock is a private run of pre-drawn cell IDs ([next, end)).
type cellIDBlock struct{ next, end uint64 }

// drawBlock refills a half-open run [next, end) of batch pre-drawn
// identities from a shared counter — the one place the block arithmetic
// lives for both transaction and cell IDs.
func drawBlock(counter *padUint64, batch uint64) (next, end uint64) {
	hi := counter.Add(batch)
	return hi - batch + 1, hi + 1
}

// Option configures a TM.
type Option func(*TM)

// ClockScheme selects the commit-versioning algorithm of the TM's global
// clock; see the internal/clock package for the trade-offs.
type ClockScheme = clock.Scheme

// Clock scheme labels, re-exported for callers configuring a TM.
const (
	// ClockGV1 is the single fetch-and-add clock word (the default).
	ClockGV1 = clock.GV1
	// ClockGVPass adopts the winner's value when the commit CAS fails
	// (TL2's GV4); commits always validate their read sets.
	ClockGVPass = clock.GVPassOnFailure
	// ClockGVSharded stripes the clock across padded words so commits on
	// different stripes never contend.
	ClockGVSharded = clock.GVSharded
)

// WithClockScheme selects the global-clock commit-versioning scheme. The
// default, ClockGV1, serializes all update commits on one fetch-and-add;
// the alternatives trade that single hot word for either adopted (shared)
// write versions (ClockGVPass) or striped unique versions
// (ClockGVSharded). Every scheme preserves each semantics' guarantee —
// cmd/stormcheck runs its storms and the exhaustive explorer under all of
// them.
func WithClockScheme(s ClockScheme) Option {
	return func(tm *TM) { tm.clock = clock.NewScheme(s) }
}

// WithContentionManager installs a conflict-arbitration policy. The default
// policy waits briefly and then aborts the blocked transaction.
func WithContentionManager(cm ContentionManager) Option {
	return func(tm *TM) {
		if cm != nil {
			tm.cm = cm
		}
	}
}

// WithMaxVersions sets how many committed versions each cell retains
// (minimum 1). The paper keeps two, which it found "actually sufficient to
// speed up the performance significantly"; the value is exposed for the
// version-depth ablation experiment.
func WithMaxVersions(n int) Option {
	return func(tm *TM) {
		if n >= 1 {
			tm.keepVersions = n
		}
	}
}

// WithElasticWindow sets the number of recent reads an elastic transaction
// keeps consistent (minimum 1). Two corresponds to hand-over-hand locking
// with two hands (Algorithm 3); one is the single-hand ablation.
func WithElasticWindow(n int) Option {
	return func(tm *TM) {
		if n >= 1 {
			tm.windowSize = n
		}
	}
}

// WithMaxRetries bounds the number of attempts per transaction; 0 (the
// default) retries until commit. When the bound is hit, Atomically returns
// an error matching ErrRetryLimit.
func WithMaxRetries(n int) Option {
	return func(tm *TM) {
		if n >= 0 {
			tm.maxRetries = n
		}
	}
}

// WithRecorder attaches an execution-history recorder (used by the checker
// and the schedule tools). A nil recorder disables tracing.
func WithRecorder(r Recorder) Option {
	return func(tm *TM) { tm.recorder = r }
}

// WithSpinBudget sets how many times a conflicting step spins before the
// contention manager is consulted.
func WithSpinBudget(n int) Option {
	return func(tm *TM) {
		if n >= 0 {
			tm.spinBudget = n
		}
	}
}

// WithReadExtension enables lazy-snapshot read-version extension for
// classic transactions (the LSA idea of Riegel, Felber, Fetzer — the
// paper's [17], contrasted with plain TL2 [16]): when a classic read
// observes a version newer than the transaction's read version, the
// runtime revalidates the whole read set and, if it still holds, slides
// the read version forward instead of aborting. Off by default so the
// classic curves of the figures reproduce plain TL2; the ablation bench
// measures the difference against the elastic cut, which achieves a
// similar tolerance with an O(window) check instead of O(read set).
func WithReadExtension(on bool) Option {
	return func(tm *TM) { tm.extendReads = on }
}

// SetDurableAck installs (or, with nil, removes) a durability barrier on
// Atomically: after an UPDATE transaction commits and its redo logs and
// Defer commit hooks have run, the TM invokes ack and Atomically does not
// return until it does. The intended shape is write-ahead logging
// (internal/persistmap's WAL): the map's operations encode into the
// handle's redo log (Tx.Redo), the commit hands that log, stamped with
// Tx.CommitVersion, to the WAL's group-commit daemon and keeps the
// daemon's ticket in the handle, and ack redeems the ticket
// (Tx.CommittedRedo) — blocking the committer until the daemon has
// fsynced the record, so many concurrent committers parked in their acks
// amortize into one fsync. ack runs outside any transaction; the handle is
// valid for CommitVersion/ID/Semantics/CommittedRedo reads only. A non-nil
// error reports a durability failure for
// an already-committed transaction — the memory effect stands, the caller
// must not assume it survives a crash — and is returned from Atomically
// verbatim. Read-only commits skip the barrier.
//
// SetDurableAck is the attach point for a durability layer constructed
// after the TM, like a persistent map opening its WAL. It is not
// synchronized: call it during setup, before transactions run
// concurrently.
func (tm *TM) SetDurableAck(ack func(tx *Tx) error) { tm.durableAck = ack }

// New builds a transactional memory runtime.
func New(opts ...Option) *TM {
	tm := &TM{
		clock:        clock.New(),
		cm:           &defaultCM{patience: defaultPatience},
		keepVersions: defaultKeepVersions,
		windowSize:   defaultWindowSize,
		spinBudget:   defaultSpinBudget,
	}
	tm.pins.init()
	for _, opt := range opts {
		opt(tm)
	}
	return tm
}

// initCell stamps a zero cell engine with its identity, shape and initial
// version-0 record — the embedded first record, except for ref-shaped
// cells (see rec). It is the construction point under InitTypedCell.
func (tm *TM) initCell(c *cell, shape cellShape, v vbox) {
	b, _ := tm.cellIDs.Get().(*cellIDBlock)
	if b == nil {
		b = new(cellIDBlock)
	}
	if b.next == b.end {
		b.next, b.end = drawBlock(&tm.nextCellID, cellIDBatch)
	}
	c.id = b.next
	b.next++
	tm.cellIDs.Put(b)
	c.shape = shape
	r := &c.first
	if shape == shapeRef {
		r = new(rec)
	}
	r.set(shape, v)
	c.cur.Store(r)
}

// keep returns how many versions the install of w retains: the configured
// depth, or only the new one for a final write.
func (tm *TM) keep(w *writeEntry) int {
	if w.final {
		return 1
	}
	return tm.keepVersions
}

// Stats returns a snapshot of the runtime counters, summed over the stat
// stripes. It is exact at quiescence; see Stats.
func (tm *TM) Stats() Stats { return tm.stats.snapshot() }

// ClockNow exposes the current global version, for tests and tools.
func (tm *TM) ClockNow() uint64 { return tm.clock.Now() }

// ClockScheme reports which commit-versioning scheme the TM's clock uses.
func (tm *TM) ClockScheme() ClockScheme { return tm.clock.Scheme() }

// errRetryAttempt is the internal marker for "this attempt aborted, retry".
var errRetryAttempt = errors.New("internal: retry attempt")

// Atomically runs fn as one transaction with the given semantics, retrying
// until it commits. It returns nil on commit.
//
// If fn returns a non-nil error the transaction rolls back (its writes are
// discarded) and the error is returned without retrying: a user error is a
// deliberate abort. Semantics violations (e.g. Store inside a Snapshot
// transaction) also abort permanently and are returned.
//
// fn may run multiple times and must therefore be free of side effects
// other than through the transaction. The *Tx handle is only valid during
// the call; composing operations means passing the handle down (flat
// nesting), with the outer call choosing the semantics label exactly as in
// section 4.2 of the paper.
func (tm *TM) Atomically(sem Semantics, fn func(*Tx) error) error {
	return tm.atomically(nil, sem, fn)
}

// getTx pulls a recycled handle from the pool (or allocates the first time
// a P sees the TM) and stamps it with a fresh identity.
func (tm *TM) getTx(sem Semantics) *Tx {
	tx, _ := tm.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{tm: tm}
	}
	tx.begin(sem)
	return tx
}

// maxPooledEntries caps the read/window capacity a pooled handle may keep:
// one giant transaction must not pin its read set in the pool forever.
const maxPooledEntries = 1 << 14

// maxPooledWrites caps the kept capacity of the value-bearing slices
// (writes, hooks). It is much smaller than maxPooledEntries because typical
// write sets are a handful of entries: a rare bulk-load transaction simply
// reallocates next time instead of parking a large buffer in the pool.
const maxPooledWrites = 512

// putTx returns a finished handle to the pool. Stale owner pointers held
// briefly by contention managers may still observe the handle after this;
// every accessor the ContentionManager contract permits on owner (ID,
// Age, Priority, Work, Killed, Kill) is atomic, so a late reader gets a
// heuristically stale but race-free view (at worst a spurious cooperative
// kill of the next transaction using the handle, which simply retries).
//
// Value- and closure-bearing state (buffered writes, Defer hooks, the delta
// log, the redo sinks, the released set) is cleared so an idle pooled
// handle does not pin user values, counters, sinks or captured scopes (the
// redo buffers hold plain bytes and keep their capacity): in the
// zero-allocation steady state GC runs rarely, so the pool drains slowly.
// Those buffers are only ever shortened through truncate, which keeps
// their tails zero, so clearing one costs what the call used, not its
// capacity: nothing, for a read-only call.
// The read/window sets are deliberately NOT cleared — they hold only cell pointers, and zeroing a traversal-
// sized read set would memclr hundreds of kilobytes per transaction — so
// an idle handle can transitively pin up to maxPooledEntries cells (and
// their short record chains) per pooled handle until its next reuse. That
// retention is bounded and rotates; the capacity cap above bounds the
// worst case.
func (tm *TM) putTx(tx *Tx) {
	if cap(tx.reads) > maxPooledEntries {
		tx.reads = nil
	}
	if cap(tx.window) > maxPooledEntries {
		tx.window = nil
	}
	tx.writes = trimClear(tx.writes)
	tx.windex.release()
	tx.onCommit = trimClear(tx.onCommit)
	tx.onAbort = trimClear(tx.onAbort)
	tx.deltas = trimClear(tx.deltas)
	tx.redo = trimRedo(tx.redo)
	// The released map keeps its bucket array across clear(); drop an
	// early-release-heavy transaction's map entirely so a pooled handle
	// stays within the same bounded-retention policy as the slices.
	if len(tx.released) > maxPooledWrites {
		tx.released = nil
	} else if len(tx.released) > 0 {
		clear(tx.released)
	}
	tm.txPool.Put(tx)
}

// trimClear drops an oversized backing array entirely, and otherwise
// empties it through truncate, returning it with capacity intact.
func trimClear[E any](s []E) []E {
	if cap(s) > maxPooledWrites {
		return nil
	}
	return truncate(s)
}

// trimRedo is trimClear for the redo log: it drops every slot's sink and
// error but keeps each buffer's capacity, unless that buffer is oversized.
func trimRedo(s []RedoLog) []RedoLog {
	if cap(s) > maxPooledWrites {
		return nil
	}
	s = s[:cap(s)]
	for i := range s {
		buf := s[i].Buf[:0]
		if cap(buf) > maxPooledRedoBytes {
			buf = nil
		}
		s[i] = RedoLog{Buf: buf}
	}
	return s[:0]
}

// atomically is the retry engine shared by Atomically, AtomicallyCtx and
// OrElse. ctx may be nil (no cancellation).
func (tm *TM) atomically(ctx context.Context, sem Semantics, fn func(*Tx) error) error {
	return tm.atomicallyAt(ctx, sem, false, 0, fn)
}

// atomicallyPinned runs fn as a Snapshot transaction whose upper bound is
// the pinned version ub instead of the clock's current value — the engine
// under SnapshotPin.Atomically.
func (tm *TM) atomicallyPinned(ctx context.Context, ub uint64, fn func(*Tx) error) error {
	return tm.atomicallyAt(ctx, Snapshot, true, ub, fn)
}

func (tm *TM) atomicallyAt(ctx context.Context, sem Semantics, pinned bool, pinVer uint64, fn func(*Tx) error) error {
	if !sem.Valid() {
		return fmt.Errorf("atomically: invalid semantics %d", int(sem))
	}
	tx := tm.getTx(sem)
	defer tm.putTx(tx)
	tx.pinned, tx.pinVer = pinned, pinVer
	var ws waitSet
	for {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		err, committed := tm.runAttempt(tx, fn)
		switch {
		case err == nil:
			if committed {
				tx.runCommitHooks()
				tm.cm.OnCommit(tx)
				if tm.durableAck != nil && len(tx.writes) > 0 {
					// The commit hooks above have externalized the write
					// set (e.g. enqueued a WAL record); the ack parks this
					// committer until the record is durable, which is what
					// lets a group-commit daemon batch concurrent
					// committers into one fsync.
					return tm.durableAck(tx)
				}
				return nil
			}
			// fall through to retry handling with tx.abortReason set
		case errors.Is(err, errRetryAttempt):
			// conflict abort; retry below
		case errors.Is(err, errBlockRetry):
			// Deliberate blocking retry: wait for a read to change.
			tx.runAbortHooks()
			tx.endAttempt().parked.Add(1)
			if len(tx.reads) == 0 && len(tx.window) == 0 {
				tx.finish(statusAborted)
				return ErrRetryNoReads
			}
			tx.captureWaitSet(&ws)
			tx.finish(statusAborted)
			if err := ws.await(ctx); err != nil {
				return err
			}
			continue
		default:
			// user error or permanent semantics error: roll back for good
			tx.finish(statusAborted)
			tx.runAbortHooks()
			tx.endAttempt().abort(AbortExplicit)
			tm.cm.OnAbort(tx)
			var perm permanentError
			if errors.As(err, &perm) {
				return perm.err
			}
			return err
		}
		tx.runAbortHooks()
		tx.endAttempt().abort(tx.abortReason)
		tm.cm.OnAbort(tx)
		if tm.maxRetries > 0 && tx.attempt >= tm.maxRetries {
			return fmt.Errorf("after %d attempts (last abort: %s): %w",
				tx.attempt, tx.abortReason, ErrRetryLimit)
		}
		tx.backoffWait()
	}
}
