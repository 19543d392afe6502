// Package repro is a Go reproduction of "Democratizing Transactional
// Programming" (Gramoli & Guerraoui, Middleware 2011): a polymorphic
// software transactional memory in which transactions of different
// semantics — classic (opaque), elastic, and snapshot — run concurrently
// over the same shared data while each transaction keeps its own guarantee.
//
// # Quickstart
//
//	tm := repro.New()
//	acct := repro.NewVar(tm, 100)
//	err := tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
//		acct.Set(tx, acct.Get(tx)-10)
//		return nil
//	})
//
// A novice uses Classic everywhere and gets single-global-lock atomicity
// (opacity). An expert labels a data-structure parse Elastic to tolerate
// false conflicts, or a size/iterator operation Snapshot to read a
// consistent multiversion snapshot that neither aborts nor is aborted by
// concurrent updates — the paper's democratization argument.
//
// The transactional closures may run several times; they must be free of
// side effects other than through transactional variables. Composition is
// by passing the *Tx down (flat nesting): the outer Atomically call decides
// the semantics label for the whole composite, exactly as in section 4.2
// of the paper.
package repro

import (
	"repro/internal/core"
)

// Re-exported runtime types. The implementation lives in internal/core;
// these aliases are the supported public surface.
type (
	// TM is a transactional memory runtime. Create one per shared-memory
	// domain with New; all Vars and transactions of a domain must use the
	// same TM.
	TM = core.TM
	// Tx is an in-progress transaction handle, valid only inside the
	// closure passed to TM.Atomically.
	Tx = core.Tx
	// Semantics selects a transaction's consistency guarantee.
	Semantics = core.Semantics
	// Option configures a TM at construction time.
	Option = core.Option
	// Stats is a snapshot of runtime counters.
	Stats = core.Stats
	// AbortReason classifies why attempts abort (visible in Stats).
	AbortReason = core.AbortReason
	// ContentionManager arbitrates conflicts; see the internal/cm package
	// for the provided policies.
	ContentionManager = core.ContentionManager
	// SemanticsError reports an operation illegal under a transaction's
	// semantics, e.g. a Store inside a Snapshot transaction.
	SemanticsError = core.SemanticsError
	// SnapshotPin pins one committed version for multi-transaction use:
	// the Snapshot handle. While the pin is live every Var and cell of
	// its TM stays readable at the pinned version — update commits retain
	// the versions the pin depends on instead of recycling them — so
	// successive pin.Atomically calls observe one consistent state: the
	// substrate of consistent chunked iteration, cheap backups and the
	// internal/persistmap layer. Acquire with TM.PinSnapshot, release as
	// soon as possible (each pinned-over commit retains one extra version
	// record per overwritten cell until Release).
	SnapshotPin = core.SnapshotPin
	// Private is a detached, frozen view of a TM's state at a fixed
	// epoch, returned by TM.Privatize after a quiescence barrier: reads
	// through it are plain loads — no transaction, no version sampling,
	// zero allocations — until Republish re-attaches the region. Fence
	// new writers away from the region before privatizing (see
	// core.ExampleTM_Privatize); the barrier drains the in-flight ones.
	Private = core.Private
)

// Transaction semantics labels (the tx-begin hint of section 5).
const (
	// Classic is opacity: the novice default.
	Classic = core.Classic
	// Elastic cuts parse transactions at false conflicts (section 4.2).
	Elastic = core.Elastic
	// Snapshot reads a consistent multiversion snapshot (section 5.1).
	Snapshot = core.Snapshot
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrWriteInSnapshot is returned by Atomically when the closure
	// attempted a Store under Snapshot semantics.
	ErrWriteInSnapshot = core.ErrWriteInSnapshot
	// ErrRetryLimit is returned when WithMaxRetries was exceeded.
	ErrRetryLimit = core.ErrRetryLimit
	// ErrRetryNoReads is returned when Tx.Retry is called with an empty
	// read set: nothing could ever wake the transaction.
	ErrRetryNoReads = core.ErrRetryNoReads
	// ErrRetryNotClassic is returned when Tx.Retry is used outside a
	// Classic transaction.
	ErrRetryNotClassic = core.ErrRetryNotClassic
	// ErrPinReleased is returned when a released SnapshotPin is used.
	ErrPinReleased = core.ErrPinReleased
	// ErrTooManyPins is returned by TM.PinSnapshot when the pin registry
	// is exhausted (pins are leaking).
	ErrTooManyPins = core.ErrTooManyPins
)

// Configuration options, re-exported from the runtime.
var (
	// WithContentionManager installs a conflict-arbitration policy.
	WithContentionManager = core.WithContentionManager
	// WithMaxVersions sets how many committed versions cells retain.
	WithMaxVersions = core.WithMaxVersions
	// WithElasticWindow sets the elastic consistency-window size.
	WithElasticWindow = core.WithElasticWindow
	// WithMaxRetries bounds attempts per transaction (0 = unlimited).
	WithMaxRetries = core.WithMaxRetries
	// WithReadExtension enables LSA-style read-version extension for
	// classic transactions (default off = plain TL2).
	WithReadExtension = core.WithReadExtension
	// WithSpinBudget sets pre-arbitration spinning.
	WithSpinBudget = core.WithSpinBudget
	// WithClockScheme selects the global-clock commit-versioning scheme
	// (ClockGV1, ClockGVPass, ClockGVSharded).
	WithClockScheme = core.WithClockScheme
)

// ClockScheme selects the commit-versioning algorithm of the TM's global
// clock: how update commits draw write versions from the shared clock.
type ClockScheme = core.ClockScheme

// Clock schemes, in increasing order of commit-path concurrency.
const (
	// ClockGV1 is the single fetch-and-add clock word (the default).
	ClockGV1 = core.ClockGV1
	// ClockGVPass is TL2's GV4: a failed commit CAS adopts the winner's
	// value instead of retrying, at the price of always validating reads.
	ClockGVPass = core.ClockGVPass
	// ClockGVSharded stripes the clock across cache-line-padded words.
	ClockGVSharded = core.ClockGVSharded
)

// New builds a transactional memory runtime.
func New(opts ...Option) *TM { return core.New(opts...) }

// Var is a typed transactional variable: the public face of a typed
// memory cell (core.TypedCell). Get and Set move values of T in the
// cell's specialized representation, so word-sized pointer-free payloads
// (int, bool, float64, small value structs) and single-pointer payloads
// never box and never allocate on the warm update path. The zero Var is
// not usable; create Vars with NewVar, never copy one, and access them
// only inside transactions of the same TM.
type Var[T any] struct {
	cell core.TypedCell[T]
}

// NewVar allocates a transactional variable holding initial. The cell is
// embedded in the Var, so a word- or pointer-shaped Var is one allocation.
func NewVar[T any](tm *TM, initial T) *Var[T] {
	v := new(Var[T])
	core.InitTypedCell(tm, &v.cell, initial)
	return v
}

// Get returns the variable's value as observed by tx under its semantics.
func (v *Var[T]) Get(tx *Tx) T { return v.cell.Load(tx) }

// Set buffers a write of value; it becomes visible atomically at commit.
// Under Snapshot semantics the transaction aborts with ErrWriteInSnapshot.
func (v *Var[T]) Set(tx *Tx, value T) { v.cell.Store(tx, value) }

// Release early-releases the variable from tx's read set (section 4.1):
// future conflicts on it are ignored. Expert-only; see the package tests
// for the composition anomaly this enables.
func (v *Var[T]) Release(tx *Tx) { v.cell.Release(tx) }
