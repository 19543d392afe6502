package core

import "sync/atomic"

// lockedBit is the low bit of a cell's meta word; the remaining 63 bits
// hold the version of the last committed write (TL2 versioned lock).
const lockedBit uint64 = 1

// cellShape classifies how a cell's payload crosses the runtime. The shape
// is fixed at cell creation (it is a property of the cell's static type T)
// and decides both the in-flight representation and whether committed
// records may be recycled:
//
//   - shapeWord: T is at most eight pointer-free bytes (int, bool, float64,
//     small pure-value structs). The payload is bit-stored in an atomic
//     word; records recycle through the cell's freelist, so a warm update
//     commit allocates nothing.
//   - shapePtr: T is a single pointer word (*S, map, chan, func,
//     unsafe.Pointer). The payload is stored in an atomic pointer — still
//     scanned by the GC — and records recycle.
//   - shapeRef: everything else (interfaces, strings, slices, large
//     structs). The payload is boxed into an `any` field that is immutable
//     after publication, so records of shapeRef cells are never recycled:
//     readers may copy the interface without synchronization.
type cellShape uint8

const (
	shapeRef cellShape = iota
	shapeWord
	shapePtr
)

// rec is one committed version slot of a cell.
//
// Records of word- and pointer-shaped cells are RECYCLED: once retired from
// the version chain they enter the cell's freelist and a later commit
// rewrites them in place. Readers may therefore observe a record mid-rewrite,
// which is safe under two rules enforced here:
//
//  1. every mutable field (word, ptr, version, prev) is atomic, so a torn
//     racing read cannot happen at the memory level;
//  2. readers bracket every record access between two loads of the cell's
//     meta word and discard the copy unless both agree (see sample and
//     sampleAt). Records are only rewritten while the cell's write lock is
//     held, and every successful commit publishes a strictly larger version
//     (each committer draws its write version after acquiring the lock, so
//     after the previous writer pushed its version into the global clock —
//     true under all clock schemes), so "meta unchanged across the bracket"
//     proves no install — and hence no record rewrite — intervened. An
//     aborting lock holder restores the old meta word, but aborts never
//     touch records.
//
// The ref field is the exception: it is written once before the record is
// published and never again (shapeRef records are excluded from recycling),
// which is what lets readers copy the interface with a plain load.
//
// A cell's version-0 record is embedded in the cell (cell.first) rather
// than allocated beside it. It is an ordinary record all the same: it is
// retired, freelisted, retained under a pin and rewritten in place by a
// final store exactly like any other, so none of the rules here single it
// out. (Ref-shaped cells allocate their first record instead: a retired
// record of theirs keeps its payload until the GC takes the record, and
// an embedded one would live, payload and all, as long as the cell.)
//
// A PINNED read needs neither the lock wait nor the bracket once the cell
// has moved past the pin (samplePinned). Take a transaction pinned at P —
// a live SnapshotPin, so the reclamation watermark is <= P — that loads
// the meta word and finds version V > P, locked or not:
//
//   - it can ignore the lock: a holder seen in that word, and every later
//     committer, drew (or will draw) its write version after taking the
//     lock, so above V and hence above P (the per-cell monotonicity of
//     rule 2);
//   - it can walk without the bracket: a write version above P was drawn
//     after the pin's second clock read, so its install samples a
//     watermark <= P (PinSnapshot's argument). Such an install never
//     rewrites in place, which needs wv <= watermark, and its retire never
//     cuts at or above the newest record <= watermark, which lies at or
//     below the newest record <= P. The records from cur down to the one
//     the read wants are therefore neither recycled, rewritten nor
//     unlinked while the walk runs.
//
// A pinned read that finds V <= P takes the bracketed path, which waits
// out a lock holder: that holder may have drawn its write version before
// the pin, at or below P, and then rewrites the very record the read
// wants.
type rec struct {
	word    atomic.Uint64        // shapeWord payload bits
	ptr     atomic.Pointer[byte] // shapePtr payload (GC-visible)
	version atomic.Uint64
	prev    atomic.Pointer[rec] // older version, or freelist link when retired
	ref     any                 // shapeRef payload; immutable after publication
}

// load copies the record's payload for a cell of shape s — only the field
// the shape selects, keeping the per-read cost at one load. Callers must
// validate the copy with a meta bracket before trusting it (see the rec
// contract above).
func (r *rec) load(s cellShape) vbox {
	switch s {
	case shapeWord:
		return vbox{word: r.word.Load()}
	case shapePtr:
		// *byte → any is a static-type interface write: no allocation.
		return vbox{ref: r.ptr.Load()}
	default:
		return vbox{ref: r.ref}
	}
}

// set writes the payload into the record's shape-selected field. Only
// callers holding the cell's lock (install) or owning an unpublished
// record (initCell) may use it.
func (r *rec) set(s cellShape, v vbox) {
	switch s {
	case shapeWord:
		r.word.Store(v.word)
	case shapePtr:
		p, _ := v.ref.(*byte)
		r.ptr.Store(p)
	default:
		r.ref = v.ref
	}
}

// vbox carries one cell payload through the runtime — read results, write
// buffers, installs — without committing to a representation: exactly one
// of the fields is meaningful, selected by the cell's shape. It is the
// untyped currency that lets one engine serve every TypedCell[T]
// instantiation with a single code path.
//
// Pointer-shaped payloads travel in ref as a *byte (a static-type
// interface write, so no allocation) and only land in the record's atomic
// pointer field at install; keeping vbox at three words makes every read
// return and write-set entry cheaper.
type vbox struct {
	word uint64
	ref  any
}

// cell is the untyped engine under every transactional memory location:
// the versioned lock, the version chain and the identity the commit path
// sorts by. TypedCell[T] embeds it and adds only encoding.
//
// Layout:
//   - meta: version<<1 | lockedBit — the versioned write lock;
//   - cur:  the newest committed record (plus its version history);
//   - owner: the transaction currently holding the write lock, for
//     contention management and cooperative kill;
//   - id:   unique per-TM identity used to sort commit-time lock
//     acquisition, which makes commits deadlock-free;
//   - free: retired records awaiting reuse, linked through prev. Only the
//     lock holder touches it;
//   - first: the version-0 record, allocated with the cell (see rec).
//
// A cell is used only with transactions of the TM that initialized it:
// versions are meaningful only against one clock.
type cell struct {
	id    uint64
	shape cellShape
	meta  atomic.Uint64
	cur   atomic.Pointer[rec]
	owner atomic.Pointer[Tx]
	free  *rec
	first rec
}

// version extracts the version from a meta word.
func version(meta uint64) uint64 { return meta >> 1 }

// isLocked reports whether a meta word carries the lock bit.
func isLocked(meta uint64) bool { return meta&lockedBit != 0 }

// The flat read bracket — sample meta, copy the current record's payload,
// resample meta, keep the copy only if both agree — is open-coded in
// Tx.readClassic and Tx.readElastic (the shape dispatch pushed a helper
// past the inliner's budget, and a call frame per read is measurable on
// traversals). The payload copy happens INSIDE the meta bracket — that is
// what makes record recycling safe (see rec). sampleAt below is the same
// protocol extended with a chain walk for snapshot reads.

// sampleAt walks the version chain for the newest record with version <=
// ub and copies its payload, all inside one meta bracket. Used by snapshot
// reads. ok is false when the cell was locked or changed mid-walk (retry);
// tooOld reports that every retained version is newer than ub. cur is the
// cell's newest version, letting the caller detect a past-version read.
func (c *cell) sampleAt(ub uint64) (ver, cur uint64, v vbox, ok, tooOld bool) {
	m1 := c.meta.Load()
	if isLocked(m1) {
		return 0, 0, vbox{}, false, false
	}
	r := c.cur.Load()
	for r != nil {
		if rv := r.version.Load(); rv <= ub {
			ver = rv
			break
		}
		r = r.prev.Load()
	}
	if r != nil {
		v = r.load(c.shape)
	}
	if c.meta.Load() != m1 {
		return 0, 0, vbox{}, false, false
	}
	if r == nil {
		return 0, version(m1), vbox{}, true, true
	}
	return ver, version(m1), v, true, false
}

// samplePinned is sampleAt for a transaction pinned at ub, on the path the
// rec contract's pinned-read rule opens: when the cell's version is past
// ub it ignores the lock bit and walks the chain with no closing meta
// load. ok is false when the cell's version is at or below ub — or, were
// the pin's guarantee ever broken, when no record is old enough — and the
// caller then falls back to the bracketed sampleAt.
func (c *cell) samplePinned(ub uint64) (ver, cur uint64, v vbox, ok bool) {
	m := c.meta.Load()
	if version(m) <= ub {
		return 0, 0, vbox{}, false
	}
	for r := c.cur.Load(); r != nil; r = r.prev.Load() {
		if rv := r.version.Load(); rv <= ub {
			return rv, version(m), r.load(c.shape), true
		}
	}
	return 0, 0, vbox{}, false
}

// tryLock attempts to acquire the versioned write lock for tx. It returns
// the pre-lock version on success. It does not spin: arbitration on
// contention is the caller's job (see Tx.acquire).
func (c *cell) tryLock(tx *Tx) (prevVersion uint64, ok bool) {
	m := c.meta.Load()
	if isLocked(m) {
		return 0, false
	}
	if !c.meta.CompareAndSwap(m, m|lockedBit) {
		return 0, false
	}
	c.owner.Store(tx)
	return version(m), true
}

// unlock releases the lock, publishing newVersion. When the holder aborts
// it passes the pre-lock version back, restoring the cell unchanged.
func (c *cell) unlock(newVersion uint64) {
	c.owner.Store(nil)
	c.meta.Store(newVersion << 1)
}

// install publishes v as the new current record with version wv, retaining
// at least keep total versions — more while a snapshot pin holds the
// reclamation watermark below wv (see retire). The caller must hold the
// lock and must have loaded watermark from the TM's pin registry AFTER
// drawing wv (commit.go does; the ordering is what guarantees a pin
// published before wv was drawn is visible here).
//
// Word- and pointer-shaped cells draw the new record from the freelist and
// push the versions they retire back, so the steady state allocates
// nothing: the update hot path cycles a fixed set of keep+1 records per
// cell. Ref-shaped cells allocate a fresh record every install (their
// payload field cannot be rewritten race-free) and drop retired ones to
// the GC — the price of the boxed `any` representation, and the boxing
// tax the word and pointer shapes exist to avoid. While a pin is active, installs on
// overwritten cells allocate too (the records a pin retains cannot be
// recycled, by design); the backlog is retired in one cut — and the
// freelist refilled — on the first install after the pin releases.
//
// With keep == 1 (a final write, or a TM configured to keep one version)
// and no pin at a version below wv, retire would cut every record behind
// the new one. The current record is then rewritten in place instead —
// under the lock, which is the rec contract's condition for rewriting any
// record — so scrubbing the cells of an unlinked node allocates nothing.
func (c *cell) install(v vbox, wv uint64, keep int, watermark uint64) {
	old := c.cur.Load()
	if keep == 1 && wv <= watermark && c.shape != shapeRef {
		old.set(c.shape, v)
		old.version.Store(wv)
		c.retire(old, keep, watermark)
		return
	}
	var r *rec
	if c.shape != shapeRef && c.free != nil {
		r = c.free
		c.free = r.prev.Load()
	} else {
		r = new(rec)
	}
	r.set(c.shape, v)
	r.version.Store(wv)
	r.prev.Store(old)
	c.cur.Store(r)
	c.retire(r, keep, watermark)
}

// retire cuts the version chain headed by head after keep records — but
// never above the newest record with version <= watermark, which an
// active snapshot pin may still need. A pin at version P (>= watermark,
// the registry minimum) reads, per cell, the newest record with version
// <= P; that record is at or above the newest one <= watermark, so
// everything below the cut is unreachable by every active pin and only
// records strictly older than the watermark are ever recycled. With no
// pins active the watermark is noPinWatermark and the first retained
// record already satisfies the bound: the cut degenerates to the plain
// keep-budget truncation.
//
// The cut is a single atomic store of the retained tail's prev: a snapshot
// reader concurrently walking the chain either still sees the old suffix
// (its meta bracket will reject the result, since retire only runs under
// the lock mid-install) or sees nil and reports tooOld — exactly what it
// would report a moment later anyway. Retired records of recycling shapes
// go to the freelist with their pointer payload cleared — a freelist may
// sit unused for as long as its cell lives, and must not keep alive what
// the cell pointed at versions ago; a reader still copying from such a
// record is rejected by its meta bracket like any reader of a recycled
// one. Ref-shaped records are left to the GC.
func (c *cell) retire(head *rec, keep int, watermark uint64) {
	tail := head
	for i := 1; i < keep; i++ {
		next := tail.prev.Load()
		if next == nil {
			return
		}
		tail = next
	}
	for tail.version.Load() > watermark {
		next := tail.prev.Load()
		if next == nil {
			return
		}
		tail = next
	}
	retired := tail.prev.Load()
	if retired == nil {
		return
	}
	tail.prev.Store(nil)
	if c.shape == shapeRef {
		return
	}
	// Refill the freelist from the retired run, capped at freelistCap
	// records: the steady state cycles one or two, but the first retire
	// after a snapshot pin releases cuts the whole pin-era backlog at
	// once, and hoarding it all would pin memory proportional to
	// (pin duration x write rate) on this cell forever. Anything beyond
	// the cap is left unlinked for the GC.
	last := retired
	for n := 1; ; n++ {
		if c.shape == shapePtr {
			last.ptr.Store(nil)
		}
		next := last.prev.Load()
		if n == freelistCap || next == nil {
			break
		}
		last = next
	}
	last.prev.Store(c.free)
	c.free = retired
}

// freelistCap bounds how many recycled records one retire may add to the
// freelist (and, since installs pop one record for each they push, how
// large a cell's freelist ever gets beyond transient pin backlogs). Large
// enough to absorb keep-budget reconfiguration, small enough that a
// pin-era backlog is returned to the GC rather than hoarded.
const freelistCap = 16

// chainLen counts records in a version chain (tests and diagnostics).
func chainLen(r *rec) int {
	n := 0
	for ; r != nil; r = r.prev.Load() {
		n++
	}
	return n
}
