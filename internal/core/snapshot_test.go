package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPinSnapshotFreezesState is the basic pin contract: successive
// transactions on one pin observe the state as of acquisition, across any
// number of intervening commits, while unpinned snapshots track the live
// state; after Release the pin refuses further use.
func TestPinSnapshotFreezesState(t *testing.T) {
	for _, scheme := range []ClockScheme{ClockGV1, ClockGVPass, ClockGVSharded} {
		t.Run(scheme.String(), func(t *testing.T) {
			tm := New(WithClockScheme(scheme))
			cells := make([]*TypedCell[int], 4)
			for i := range cells {
				cells[i] = NewTypedCell(tm, i)
			}
			pin, err := tm.PinSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Overwrite every cell many times past the version budget.
			for round := 0; round < 10; round++ {
				if err := tm.Atomically(Classic, func(tx *Tx) error {
					for _, c := range cells {
						c.Store(tx, c.Load(tx)+100)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			// The pin still reads the pre-update state, one transaction per
			// cell — multi-transaction consistency is the point.
			for i, c := range cells {
				var got int
				if err := pin.Atomically(func(tx *Tx) error {
					got = c.Load(tx)
					return nil
				}); err != nil {
					t.Fatalf("pinned read: %v", err)
				}
				if got != i {
					t.Fatalf("pinned read of cell %d = %d, want %d", i, got, i)
				}
			}
			// A fresh snapshot transaction sees the live values.
			if err := tm.Atomically(Snapshot, func(tx *Tx) error {
				if got := cells[0].Load(tx); got != 1000 {
					t.Errorf("live snapshot read = %d, want 1000", got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if tm.PinnedVersions() != 1 {
				t.Fatalf("PinnedVersions = %d, want 1", tm.PinnedVersions())
			}
			pin.Release()
			pin.Release() // idempotent
			if tm.PinnedVersions() != 0 {
				t.Fatalf("PinnedVersions after release = %d, want 0", tm.PinnedVersions())
			}
			if err := pin.Atomically(func(*Tx) error { return nil }); !errors.Is(err, ErrPinReleased) {
				t.Fatalf("use after release: err = %v, want ErrPinReleased", err)
			}
			if got := tm.Stats().SnapshotPins; got != 1 {
				t.Fatalf("Stats().SnapshotPins = %d, want 1", got)
			}
		})
	}
}

// TestPinnedSnapshotNeverSeesRecycledRecord is the reclamation-safety
// regression fence: a pinned snapshot hammered by concurrent committers
// must never lose its version (AbortSnapshotTooOld) nor observe a torn or
// recycled record. The committers preserve an invariant — all cells equal
// — so ANY inconsistent observation, and in particular a record rewritten
// under the reader, breaks the equality; and the pin fixes one version, so
// every pinned transaction must see the exact values of the first. Run
// with -race to put the freelist rewrite path under the detector while a
// pinned reader walks the chains.
func TestPinnedSnapshotNeverSeesRecycledRecord(t *testing.T) {
	const (
		ncells     = 8
		committers = 8
		readerTxs  = 400
	)
	for _, scheme := range []ClockScheme{ClockGV1, ClockGVPass, ClockGVSharded} {
		t.Run(scheme.String(), func(t *testing.T) {
			tm := New(WithClockScheme(scheme))
			cells := make([]*TypedCell[int], ncells)
			for i := range cells {
				cells[i] = NewTypedCell(tm, 0)
			}
			// Establish a known committed state, then pin it.
			if err := tm.Atomically(Classic, func(tx *Tx) error {
				for _, c := range cells {
					c.Store(tx, 7)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			pin, err := tm.PinSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer pin.Release()

			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < committers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						_ = tm.Atomically(Classic, func(tx *Tx) error {
							v := cells[0].Load(tx)
							for _, c := range cells {
								c.Store(tx, v+1)
							}
							return nil
						})
					}
				}()
			}

			for i := 0; i < readerTxs; i++ {
				if err := pin.Atomically(func(tx *Tx) error {
					for j, c := range cells {
						if got := c.Load(tx); got != 7 {
							t.Errorf("pinned tx %d read cell %d = %d, want 7", i, j, got)
						}
					}
					return nil
				}); err != nil {
					t.Errorf("pinned tx %d: %v", i, err)
				}
				if t.Failed() {
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			if n := tm.Stats().Aborts[AbortSnapshotTooOld]; n != 0 {
				t.Fatalf("pinned snapshot lost its version %d time(s): pin-aware reclamation failed", n)
			}
		})
	}
}

// TestPinReleaseRestoresReclamation verifies the version-chain life cycle
// around a pin: the chain of a hammered cell grows while the pin retains
// old versions, and the first installs after Release cut the backlog back
// to the keep budget (refilling the freelist rather than leaking).
func TestPinReleaseRestoresReclamation(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 0)
	bump := func(n int) {
		for i := 0; i < n; i++ {
			if err := tm.Atomically(Classic, func(tx *Tx) error {
				c.Store(tx, c.Load(tx)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	bump(5)
	if n := chainLen(c.h.cur.Load()); n > tm.keepVersions {
		t.Fatalf("unpinned chain length %d exceeds keep budget %d", n, tm.keepVersions)
	}
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const held = 20
	bump(held)
	if n := chainLen(c.h.cur.Load()); n < held {
		t.Fatalf("pinned chain length %d, want >= %d retained versions", n, held)
	}
	var got int
	if err := pin.Atomically(func(tx *Tx) error { got = c.Load(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("pinned read = %d, want 5", got)
	}
	pin.Release()
	bump(1) // the next install retires the whole backlog
	if n := chainLen(c.h.cur.Load()); n > tm.keepVersions {
		t.Fatalf("chain length %d after release, want <= keep budget %d", n, tm.keepVersions)
	}
	// The backlog refilled the freelist only up to its cap — the rest went
	// to the GC rather than being hoarded for the cell's lifetime.
	if n := chainLen(c.h.free); n > freelistCap {
		t.Fatalf("freelist holds %d records after the backlog cut, want <= %d", n, freelistCap)
	}
	// Warm updates reuse the freelist (the alloc fence in alloc_test.go
	// asserts the zero-allocation half).
	bump(5)
	if got := mustLoad(t, tm, c); got != 31 {
		t.Fatalf("final value %d, want 31", got)
	}
	if n := chainLen(c.h.free); n > freelistCap {
		t.Fatalf("freelist grew to %d records in steady state, want <= %d", n, freelistCap)
	}
}

func mustLoad(t *testing.T, tm *TM, c *TypedCell[int]) int {
	t.Helper()
	var v int
	if err := tm.Atomically(Classic, func(tx *Tx) error { v = c.Load(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPinRegistryExhaustion pins every slot, expects ErrTooManyPins on the
// next acquisition, and recovers after one release.
func TestPinRegistryExhaustion(t *testing.T) {
	tm := New()
	max := pinMaxActive
	pins := make([]*SnapshotPin, 0, max)
	for i := 0; i < max; i++ {
		p, err := tm.PinSnapshot()
		if err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
		pins = append(pins, p)
	}
	if _, err := tm.PinSnapshot(); !errors.Is(err, ErrTooManyPins) {
		t.Fatalf("pin %d: err = %v, want ErrTooManyPins", max, err)
	}
	pins[max/2].Release()
	p, err := tm.PinSnapshot()
	if err != nil {
		t.Fatalf("pin after release: %v", err)
	}
	p.Release()
	for _, p := range pins {
		p.Release()
	}
	if tm.PinnedVersions() != 0 {
		t.Fatalf("PinnedVersions = %d after releasing all", tm.PinnedVersions())
	}
	if w := tm.pins.current(); w != noPinWatermark {
		t.Fatalf("watermark = %d after releasing all, want noPinWatermark", w)
	}
}

// TestPinWatermarkNeverAboveLivePin is the regression fence for the two
// registry races found in review (a release raising the watermark from a
// slot scan that missed a concurrent acquisition — permanently or
// transiently stranding it above a live pin): goroutines continuously
// pin at ADVANCING versions, and while each pin is live they re-assert,
// against concurrent acquires and releases of other pins, that the
// published watermark never exceeds their pinned version. With the
// serialized bookkeeping the invariant holds at every instant; the old
// lock-free maintenance failed this test.
func TestPinWatermarkNeverAboveLivePin(t *testing.T) {
	var r pinRegistry
	r.init()
	var clock atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				ver := clock.Add(1)
				slot := r.acquire(ver)
				if slot == nil {
					t.Error("registry full with only 8 concurrent pins")
					return
				}
				for probe := 0; probe < 4; probe++ {
					if w := r.current(); w > ver {
						t.Errorf("watermark %d above live pin at %d", w, ver)
						r.release(slot)
						return
					}
				}
				r.release(slot)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if w := r.current(); w != noPinWatermark {
		t.Fatalf("watermark = %d after releasing all pins, want noPinWatermark", w)
	}
}

// TestPinWatermarkUnderChurn races pin/release cycles against each other
// and checks the registry converges to empty with the watermark fully
// raised — the CAS-min/rescan pair must not strand a stale minimum.
func TestPinWatermarkUnderChurn(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p, err := tm.PinSnapshot()
				if err != nil {
					t.Error(err)
					return
				}
				_ = tm.Atomically(Classic, func(tx *Tx) error {
					c.Store(tx, c.Load(tx)+1)
					return nil
				})
				_ = p.Atomically(func(tx *Tx) error { c.Load(tx); return nil })
				p.Release()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := tm.PinnedVersions(); n != 0 {
		t.Fatalf("PinnedVersions = %d after churn, want 0", n)
	}
	if w := tm.pins.current(); w != noPinWatermark {
		t.Fatalf("watermark = %d after churn, want noPinWatermark", w)
	}
	if n := tm.Stats().Aborts[AbortSnapshotTooOld]; n != 0 {
		t.Fatalf("pinned snapshots lost their versions %d time(s)", n)
	}
}

// TestWaitSetDedup pins the wait-set dedup: a cell read twice — word- or
// ref-shaped — registers exactly one waiter, and the retained entry
// carries the newest observed version.
func TestWaitSetDedup(t *testing.T) {
	tm := New()
	word := NewTypedCell(tm, 1)
	ref := NewTypedCell[any](tm, 2)
	tx := newTx(tm, Classic)
	tx.beginAttempt()
	for i := 0; i < 3; i++ {
		word.Load(tx)
		_ = ref.Load(tx)
	}
	if len(tx.reads) != 6 {
		t.Fatalf("read set has %d entries, want 6 (dedup happens at capture, not on the read path)", len(tx.reads))
	}
	var ws waitSet
	tx.captureWaitSet(&ws)
	if len(ws.entries) != 2 {
		t.Fatalf("wait set has %d entries, want 2 (one per cell)", len(ws.entries))
	}
	seen := map[*cell]bool{}
	for _, e := range ws.entries {
		if seen[e.cell] {
			t.Fatalf("cell %d appears twice in the wait set", e.cell.id)
		}
		seen[e.cell] = true
	}
	tx.finish(statusAborted)
}

// TestWaitSetDedupKeepsNewestVersion builds duplicate entries with
// distinct versions directly (a classic attempt can legitimately hold
// them when the cell advanced below the read version between two reads)
// and checks capture keeps the newest, so the blocked transaction does
// not wake for a change it already observed.
func TestWaitSetDedupKeepsNewestVersion(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 1)
	tx := newTx(tm, Classic)
	tx.beginAttempt()
	tx.reads = append(tx.reads,
		readEntry{cell: &c.h, ver: 3},
		readEntry{cell: &c.h, ver: 7},
		readEntry{cell: &c.h, ver: 5},
	)
	var ws waitSet
	tx.captureWaitSet(&ws)
	if len(ws.entries) != 1 || ws.entries[0].ver != 7 {
		t.Fatalf("wait set = %+v, want one entry at version 7", ws.entries)
	}
	tx.finish(statusAborted)
}
