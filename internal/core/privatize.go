package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements privatization: detaching a region of transactional
// state from the TM so readers traverse it with plain loads — no
// transaction, no version sampling, no read-set bookkeeping, zero
// allocations — and re-attaching it safely afterwards.
//
// The discipline follows privatization-safe TMs: a detach is an epoch
// fence behind a quiescence barrier. Privatize first drains every
// in-flight transaction (the barrier), then draws the detach epoch E from
// the clock. The order matters and is the whole safety argument:
//
//   - any update transaction admitted by the barrier committed (or
//     aborted) BEFORE E was drawn, so its write version is <= E and its
//     installs are visible to the privatizer — the commit is "admitted
//     before the epoch";
//   - any transaction that registers after the barrier's generation flip
//     is excluded: the caller has already fenced new writers away from
//     the region (see the contract below), so it cannot touch the
//     detached cells at all.
//
// Either way no detached read can observe a value newer than E: there is
// no third state, hence no torn privatized view. The storm workload and
// the explorer's detach/commit race program hold the implementation to
// exactly this.
//
// # The caller's fence
//
// Quiescence drains IN-FLIGHT transactions; it cannot stop FUTURE ones.
// The contract is therefore: stop new writers to the region before
// calling Privatize — typically by committing a transactional "detached"
// flag that every writer checks first (see ExampleTM_Privatize). Under
// the TL2 commit rules this fence is airtight for Classic and Snapshot
// transactions: a committed region-write that read the flag as false
// validated that read at commit time, so its write version precedes the
// flag commit's, which precedes E — and the barrier drained it. A
// transaction starting after the flip reads the flag as true and skips
// the region. (Elastic transactions may cut the flag read out of the
// window and must not be used as fenced writers.)
//
// In race-detector builds the guard rails make violations loud: a
// transactional Load/Store of a cell marked detached panics, as does a
// detached read that observes a record version newer than its epoch.

// qStripes is the number of padded active-transaction counters per
// generation side. Attempt registration stripes by transaction identity,
// so concurrent attempts on different cores do not fight over one
// counter word; the barrier sums all stripes.
const qStripes = 16

// padInt64 is an atomic signed counter alone on its cache line (the
// signed sibling of padUint64 — quiescer counts go down as well as up).
type padInt64 struct {
	atomic.Int64
	_ [56]byte
}

// quiescer tracks in-flight transaction attempts in two generation-
// indexed sets of striped counters, so a barrier can flip the generation
// and wait for the old side to drain while new attempts proceed
// unhindered on the new side. Registration is two atomic ops on one
// striped word — the commit path's budget — and the barrier, a rare
// heavyweight operation, pays the scan.
type quiescer struct {
	// gen is the current generation; its low bit selects the active side.
	// It only ever increments (under TM.privMu), so enter's exact-value
	// recheck can never be fooled by an ABA of the parity bit.
	gen atomic.Uint64
	_   [56]byte
	// active counts registered attempts per generation side and stripe.
	// Invariant: once a barrier flips the generation, the old side's sum
	// only decreases — enter's recheck undoes any increment that landed
	// after the flip — so the drain scan terminates.
	active [2][qStripes]padInt64
}

// enter registers one transaction attempt and returns the token exit
// needs. The recheck closes the race with a concurrent flip: if the
// generation moved between the load and the increment, the increment
// landed on a side a barrier may already be draining without having
// observed this attempt's clock sample, so it is undone and registration
// retries on the new side. A successfully registered attempt is
// guaranteed visible to every barrier scan that starts after it — the
// increment precedes the generation re-load, which read the pre-flip
// value, so in the total order of these atomics the increment precedes
// the flip, which precedes the scan.
func (q *quiescer) enter(hint uint64) uint64 {
	s := hint & (qStripes - 1)
	for {
		g := q.gen.Load()
		q.active[g&1][s].Add(1)
		if q.gen.Load() == g {
			return g&1 | s<<1
		}
		q.active[g&1][s].Add(-1)
	}
}

// exit deregisters the attempt entered with token.
func (q *quiescer) exit(token uint64) {
	q.active[token&1][token>>1].Add(-1)
}

// barrier flips the generation and waits until every attempt registered
// under the old one has exited. Callers hold TM.privMu (concurrent flips
// would wait on each other's sides). New attempts register on the new
// side and are not waited for — the barrier is not a global stall.
func (q *quiescer) barrier() {
	side := q.gen.Add(1)&1 ^ 1
	for spin := 0; ; spin++ {
		var sum int64
		for s := range q.active[side] {
			sum += q.active[side][s].Load()
		}
		if sum == 0 {
			return
		}
		if spin < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// runAttempt executes one transaction attempt bracketed by quiescer
// registration: Privatize's barrier waits for exactly the attempts whose
// clock samples it could not have preceded. The bracket must cover
// beginAttempt (the clock sample) through commit (the installs), and
// must NOT cover the blocking-retry park or the backoff sleep in
// atomicallyAt — a parked transaction holds no clock sample and waiting
// for it would deadlock the barrier.
func (tm *TM) runAttempt(tx *Tx, fn func(*Tx) error) (err error, committed bool) {
	token := tm.quiesce.enter(tx.idEnd / txIDBatch)
	defer tm.quiesce.exit(token)
	tx.beginAttempt()
	if err = tx.run(fn); err == nil {
		committed = tx.commit()
	}
	return err, committed
}

// Private is a detached, frozen view of a TM's state at a fixed epoch,
// returned by TM.Privatize. Reads through it (TypedCell.LoadDetached,
// txstruct's detached views) are plain loads with no STM bookkeeping.
// The view also retains the epoch's version records (it holds a snapshot
// pin), so Atomically offers pinned transactional reads over the same
// instant when a caller needs them to mix with plain ones.
//
// A Private is safe for concurrent use by any number of readers; hand it
// to them with ordinary Go synchronization (channel, WaitGroup, mutex).
// Republish must be called exactly once, after all of them are done.
type Private struct {
	tm          *TM
	pin         *SnapshotPin
	epoch       uint64
	republished atomic.Bool

	// guarded lists the cells marked detached in race builds, so
	// Republish can unguard them. Empty in normal builds.
	gmu     sync.Mutex
	guarded []*cell
}

// Privatize detaches the caller's region of transactional state behind a
// quiescence barrier and returns the frozen view.
//
// The caller must have fenced new writers away from the region first
// (e.g. by committing a transactional "detached" flag its writers
// check — see the package comment in privatize.go and
// ExampleTM_Privatize); Privatize then drains every in-flight
// transaction and draws the detach epoch AFTER the drain, so each
// drained commit is admitted before the epoch and everything later is
// excluded by the fence. On return, the region's cells are stable: plain
// loads (LoadDetached) read the newest committed value, which is at most
// Epoch, and stay valid until Republish.
//
// Privatize must not be called from inside an Atomically block (the
// barrier would wait for the caller's own transaction). Concurrent
// Privatize calls serialize; each gets its own epoch.
func (tm *TM) Privatize() (*Private, error) {
	tm.privMu.Lock()
	defer tm.privMu.Unlock()
	tm.quiesce.barrier()
	// The epoch must be an exact clock read taken after the drain —
	// PinSnapshot's announce-then-adopt protocol reads Now() twice and
	// adopts the second. Never a per-P recent cache (clock.NowRecent):
	// a stale stripe could place the epoch before a drained commit's
	// write version, un-admitting it.
	pin, err := tm.PinSnapshot()
	if err != nil {
		return nil, err
	}
	tm.stats.privatizes.Add(1)
	return &Private{tm: tm, pin: pin, epoch: pin.Version()}, nil
}

// Epoch returns the detach epoch: the clock instant the view is frozen
// at. No detached read observes a value committed after it.
func (p *Private) Epoch() uint64 { return p.epoch }

// Republished reports whether Republish has run.
func (p *Private) Republished() bool { return p.republished.Load() }

// Republish re-attaches the detached region: detached reads become
// invalid (loudly so in race builds) and transactional writers may be
// re-admitted by the caller (clear the fence flag AFTER Republish
// returns). The fresh version fence is automatic: every later update
// commit draws its write version from the clock, which is already past
// Epoch, so post-republish commits are well-ordered after everything the
// detached view observed. Idempotent.
func (p *Private) Republish() {
	if p.republished.Swap(true) {
		return
	}
	if raceEnabled {
		p.gmu.Lock()
		cells := p.guarded
		p.guarded = nil
		p.gmu.Unlock()
		p.tm.priv.removeAll(cells)
	}
	p.pin.Release()
}

// Atomically runs fn as a Snapshot transaction pinned to the detach
// epoch: a transactional read of the same frozen instant, for callers
// mixing structured queries with plain detached loads. Returns
// ErrPinReleased after Republish.
func (p *Private) Atomically(fn func(*Tx) error) error {
	if p.republished.Load() {
		return ErrPinReleased
	}
	return p.pin.Atomically(fn)
}

// guardCell registers c as detached under p in race builds, arming the
// guard rails: until Republish, any transactional Load/Store of c
// panics, pinpointing the writer that slipped the caller's fence. A
// no-op in normal builds — structures should skip their marking walk
// entirely unless PrivatizeGuardsEnabled.
func (p *Private) guardCell(c *cell) {
	if !raceEnabled {
		return
	}
	if p.republished.Load() {
		panic("core: MarkDetached after Republish")
	}
	p.tm.priv.add(c)
	p.gmu.Lock()
	p.guarded = append(p.guarded, c)
	p.gmu.Unlock()
}

// checkDetachedRead validates a LoadDetached in race builds: the view
// must not be republished, and the observed record must not postdate the
// epoch (a newer record means a transaction committed into the detached
// region — the caller's fence has a hole).
func (p *Private) checkDetachedRead(c *cell, r *rec) {
	if p == nil {
		panic("core: LoadDetached with nil Private")
	}
	if p.republished.Load() {
		panic("core: LoadDetached after Republish")
	}
	if v := r.version.Load(); v > p.epoch {
		panic(fmt.Sprintf(
			"core: privatized read of cell %d observed version %d, newer than detach epoch %d (a transaction committed into the detached region; fence writers before Privatize)",
			c.id, v, p.epoch))
	}
}

// PrivatizeGuardsEnabled reports whether the privatization guard rails
// are compiled in (race-detector builds). Structure-level Detach
// implementations consult it to skip their cell-marking walk in normal
// builds, where marking would be pure overhead.
const PrivatizeGuardsEnabled = raceEnabled

// MarkDetached registers the cell as part of p's detached region — in
// race builds a subsequent transactional Load/Store of it panics until
// p.Republish. A no-op in normal builds.
func (c *TypedCell[T]) MarkDetached(p *Private) { p.guardCell(&c.h) }

// LoadDetached reads the cell with a plain load under a detached view:
// no transaction, no version sampling, no read-set bookkeeping, and zero
// allocations for word- and pointer-shaped T. Valid only between
// p := tm.Privatize() and p.Republish(), for cells in the region the
// caller fenced; race builds check both and the epoch bound.
func (c *TypedCell[T]) LoadDetached(p *Private) T {
	r := c.h.cur.Load()
	if raceEnabled {
		p.checkDetachedRead(&c.h, r)
	}
	// Decode straight from the record: routing word and pointer shapes
	// through the vbox would box the payload into an interface and assert
	// it back out per load — measurable at one load per tree level on the
	// privatized read path.
	switch c.h.shape {
	case shapeWord:
		return wordTo[T](r.word.Load())
	case shapePtr:
		return ptrTo[T](r.ptr.Load())
	default:
		if r.ref == nil {
			var zero T
			return zero
		}
		return r.ref.(T)
	}
}

// privGuard is the TM-wide registry of currently detached cells, active
// only in race builds. The hot-path question — "is this cell detached?"
// — is answered by one atomic load of n when nothing is detached, which
// is the common case even in guarded test runs.
type privGuard struct {
	n     atomic.Int32
	mu    sync.Mutex
	cells map[*cell]int // refcounts: overlapping views may guard one cell
}

func (g *privGuard) add(c *cell) {
	g.mu.Lock()
	if g.cells == nil {
		g.cells = make(map[*cell]int)
	}
	g.cells[c]++
	g.mu.Unlock()
	g.n.Add(1)
}

func (g *privGuard) removeAll(cs []*cell) {
	if len(cs) == 0 {
		return
	}
	g.mu.Lock()
	for _, c := range cs {
		if g.cells[c]--; g.cells[c] == 0 {
			delete(g.cells, c)
		}
	}
	g.mu.Unlock()
	g.n.Add(int32(-len(cs)))
}

// privCheck panics if c is currently detached: called from the
// transactional read and write engines in race builds (the raceEnabled
// branch makes it vanish from normal builds). The panic unwinds through
// Tx.run's recover as an unknown panic and propagates to the caller —
// deliberately loud.
func (tm *TM) privCheck(c *cell) {
	g := &tm.priv
	if g.n.Load() == 0 {
		return
	}
	g.mu.Lock()
	_, detached := g.cells[c]
	g.mu.Unlock()
	if detached {
		panic(fmt.Sprintf(
			"core: transactional access to detached cell %d (privatized by TM.Privatize; republish before transactional use, or fence this writer)",
			c.id))
	}
}
