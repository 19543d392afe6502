package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// killerCM kills every lock owner it meets and aborts itself on torn
// samples: the most hostile manager possible. Invariants must survive it.
type killerCM struct{}

func (killerCM) Arbitrate(_, owner *Tx, attempt int) Decision {
	if owner != nil && attempt%2 == 0 {
		return DecisionAbortOther
	}
	if attempt > 4 {
		return DecisionAbortSelf
	}
	return DecisionWait
}
func (killerCM) OnCommit(*Tx) {}
func (killerCM) OnAbort(*Tx)  {}

func TestKillStormPreservesInvariants(t *testing.T) {
	tm := New(WithContentionManager(killerCM{}), WithSpinBudget(0))
	const ncells = 8
	cells := make([]*TypedCell[int], ncells)
	for i := range cells {
		cells[i] = NewTypedCell(tm, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*0x9e3779b97f4a7c15 + 17
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < 200; i++ {
				from, to := next(ncells), next(ncells)
				if from == to {
					continue
				}
				err := tm.Atomically(Classic, func(tx *Tx) error {
					fv := cells[from].Load(tx)
					tv := cells[to].Load(tx)
					cells[from].Store(tx, fv-1)
					cells[to].Store(tx, tv+1)
					return nil
				})
				if err != nil {
					t.Errorf("transfer under kill storm: %v", err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	var sum int
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		sum = 0
		for _, c := range cells {
			v := c.Load(tx)
			sum += v
		}
		return nil
	})
	if sum != 0 {
		t.Fatalf("kill storm broke conservation: sum = %d", sum)
	}
	// On serial hosts the storm may never make two transactions meet on a
	// lock, so killerCM never fires. The kill path must be exercised
	// either way: force one deterministic cooperative kill — a victim
	// parks mid-attempt, another goroutine kills it, and the victim must
	// abort that attempt, retry, and still commit correctly.
	if tm.Stats().Kills == 0 {
		forceDeterministicKill(t, tm, cells)
	}
	if tm.Stats().Kills == 0 {
		t.Fatal("no kill observed even after the forced cooperative kill of a parked transaction")
	}
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		sum = 0
		for _, c := range cells {
			v := c.Load(tx)
			sum += v
		}
		return nil
	})
	if sum != 0 {
		t.Fatalf("forced kill broke conservation: sum = %d", sum)
	}
}

// forceDeterministicKill parks a transaction mid-attempt, kills it from
// outside, and lets it retry to commit: the cooperative-kill path without
// any reliance on scheduling luck.
func forceDeterministicKill(t *testing.T, tm *TM, cells []*TypedCell[int]) {
	t.Helper()
	parked := make(chan *Tx)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- tm.Atomically(Classic, func(tx *Tx) error {
			if tx.Attempt() == 1 {
				parked <- tx
				<-release
			}
			// Enough accesses that the periodic kill check runs even if
			// commit-time checking were the only other kill point.
			for i := 0; i < 2*flushEvery; i++ {
				_ = (cells[i%len(cells)]).Load(tx)
			}
			v := cells[0].Load(tx)
			cells[0].Store(tx, v+1)
			w := cells[1].Load(tx)
			cells[1].Store(tx, w-1)
			return nil
		})
	}()
	victim := <-parked
	victim.Kill()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("killed transaction never recovered: %v", err)
	}
}

// TestAbortRestoresLockedCells forces commit-time validation failures and
// checks aborted commits leave cells exactly as they were (versions and
// values restored on unlock).
func TestAbortRestoresLockedCells(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, 100)
	b := NewTypedCell(tm, 200)

	// Transaction reads a, then we invalidate a behind its back before
	// it commits a write to b: validation must fail, and b must keep its
	// value AND its version.
	verBefore := tm.ClockNow()
	started := make(chan struct{})
	proceed := make(chan struct{})
	attempts := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tm.Atomically(Classic, func(tx *Tx) error {
			attempts++
			_ = a.Load(tx)
			if attempts == 1 {
				close(started)
				<-proceed
			}
			v := b.Load(tx)
			b.Store(tx, v+1)
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		a.Store(tx, 101)
		return nil
	})
	close(proceed)
	<-done
	if attempts < 2 {
		t.Fatalf("expected a validation abort, attempts = %d", attempts)
	}
	if got := loadInt(t, tm, b); got != 201 {
		t.Fatalf("b = %d after retried commit, want 201", got)
	}
	_ = verBefore
}

// TestQuickTransferConservation is a property test: any random schedule of
// transfers over any cell count conserves the total.
func TestQuickTransferConservation(t *testing.T) {
	prop := func(moves []uint16, ncells8 uint8) bool {
		ncells := int(ncells8%6) + 2
		tm := New()
		cells := make([]*TypedCell[int], ncells)
		for i := range cells {
			cells[i] = NewTypedCell(tm, int(ncells8))
		}
		var wg sync.WaitGroup
		// Split moves across 2 workers for real concurrency.
		half := len(moves) / 2
		for _, chunk := range [][]uint16{moves[:half], moves[half:]} {
			chunk := chunk
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, mv := range chunk {
					from := int(mv) % ncells
					to := int(mv>>4) % ncells
					if from == to {
						continue
					}
					sem := Classic
					if mv&1 == 1 {
						sem = Elastic
					}
					_ = tm.Atomically(sem, func(tx *Tx) error {
						fv := cells[from].Load(tx)
						tv := cells[to].Load(tx)
						cells[from].Store(tx, fv-1)
						cells[to].Store(tx, tv+1)
						return nil
					})
				}
			}()
		}
		wg.Wait()
		sum := 0
		_ = tm.Atomically(Snapshot, func(tx *Tx) error {
			sum = 0
			for _, c := range cells {
				v := c.Load(tx)
				sum += v
			}
			return nil
		})
		return sum == ncells*int(ncells8)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMonotonicity: successive snapshots of a monotonically
// increasing counter never observe it going backwards.
func TestSnapshotMonotonicity(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tm.Atomically(Classic, func(tx *Tx) error {
				v := c.Load(tx)
				c.Store(tx, v+1)
				return nil
			})
		}
	}()
	last := -1
	for i := 0; i < 500; i++ {
		var v int
		if err := tm.Atomically(Snapshot, func(tx *Tx) error {
			v = c.Load(tx)
			return nil
		}); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		if v < last {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot went backwards: %d after %d", v, last)
		}
		last = v
	}
	close(stop)
	wg.Wait()
}

// TestHotCellThroughputUnderEveryReason drives enough contention to
// exercise several abort reasons and confirms the stats classify them.
func TestHotCellAbortClassification(t *testing.T) {
	tm := New(WithSpinBudget(1))
	hot := NewTypedCell(tm, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(50 * time.Millisecond)
			for time.Now().Before(deadline) {
				_ = tm.Atomically(Classic, func(tx *Tx) error {
					v := hot.Load(tx)
					hot.Store(tx, v+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	st := tm.Stats()
	if st.Commits == 0 {
		t.Fatal("no commits under contention")
	}
	if st.TotalAborts() == 0 {
		t.Skip("no aborts observed (host too serial); nothing to classify")
	}
	for reason, n := range st.Aborts {
		if n > 0 && reason.String() == "unknown" {
			t.Fatalf("unclassified abort reason %d", reason)
		}
	}
}

// TestReleaseOfUnreadCellIsHarmless: releasing something never read (or
// nil) must not corrupt the transaction.
func TestReleaseOfUnreadCellIsHarmless(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, 1)
	b := NewTypedCell(tm, 2)
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		b.Release(tx)                      // never read
		(*TypedCell[int])(nil).Release(tx) // nil cell
		v := a.Load(tx)
		a.Store(tx, v+1)
		return nil
	})
	if got := loadInt(t, tm, a); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
}

// TestMisusePanics is the misuse contract: a nil cell and a handle kept
// past its Atomically call are programming errors, and the runtime fails
// loudly — the panic leaves Atomically unchanged — rather than returning
// an error or corrupting memory.
func TestMisusePanics(t *testing.T) {
	tm := New()
	var nilCell *TypedCell[int]
	c := NewTypedCell(tm, 0)
	// keep returns a handle retained past its committed Atomically call.
	keep := func() (kept *Tx) {
		mustAtomically(t, tm, Classic, func(tx *Tx) error { kept = tx; return nil })
		return kept
	}
	inTx := func(fn func(tx *Tx)) func() {
		return func() {
			_ = tm.Atomically(Classic, func(tx *Tx) error { fn(tx); return nil })
		}
	}
	const stale = "core: transaction handle used outside its Atomically block"
	for _, tc := range []struct {
		name, want string
		fn         func()
	}{
		{"Load/nil cell", "core: Load of nil cell", inTx(func(tx *Tx) { nilCell.Load(tx) })},
		{"Store/nil cell", "core: Store to nil cell", inTx(func(tx *Tx) { nilCell.Store(tx, 1) })},
		{"StoreFinal/nil cell", "core: StoreFinal to nil cell", inTx(func(tx *Tx) { nilCell.StoreFinal(tx, 1) })},
		{"Load/stale handle", stale, func() { c.Load(keep()) }},
		{"Store/stale handle", stale, func() { c.Store(keep(), 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); msg != tc.want {
					t.Fatalf("panic %q, want %q", msg, tc.want)
				}
			}()
			tc.fn()
		})
	}
	if got := loadInt(t, tm, c); got != 0 {
		t.Fatalf("cell = %d after misuse, want 0", got)
	}
}

// TestRereadAfterRelease: a cell read again after release re-enters the
// read set and is validated again.
func TestRereadAfterRelease(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, 1)
	out := NewTypedCell(tm, 0)
	started := make(chan struct{})
	proceed := make(chan struct{})
	attempts := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tm.Atomically(Classic, func(tx *Tx) error {
			attempts++
			_ = a.Load(tx)
			a.Release(tx)
			if attempts == 1 {
				close(started)
				<-proceed
			}
			v := a.Load(tx) // re-read: fresh dependency
			out.Store(tx, v)
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		a.Store(tx, 50)
		return nil
	})
	close(proceed)
	<-done
	// The re-read must either have seen the new value or aborted and
	// retried; both end with out == 50.
	if got := loadInt(t, tm, out); got != 50 {
		t.Fatalf("out = %d, want 50", got)
	}
}
