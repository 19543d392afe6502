package core

import (
	"testing"
	"time"
)

// These tests fence the write-set index: membership costs the same
// whatever the size of the write set, and the index never outlives the
// attempt that built it.

func intCells(tm *TM, n int) []*TypedCell[int] {
	cells := make([]*TypedCell[int], n)
	for i := range cells {
		cells[i] = NewTypedCell(tm, -1)
	}
	return cells
}

// TestBigTransactionIsLinear: one transaction that stores to n distinct
// cells and then loads each costs, per access, about what a 32-cell one
// does. With a scanned write set the 4096-cell transaction paid for half
// the write set on every access and came out two orders of magnitude
// dearer.
func TestBigTransactionIsLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("timing fence; the race detector's own cost per access swamps it")
	}
	tm := New()
	perAccess := func(cells []*TypedCell[int], reps int) time.Duration {
		fn := func(tx *Tx) error {
			for i, c := range cells {
				c.Store(tx, i)
			}
			for i, c := range cells {
				if got := c.Load(tx); got != i {
					t.Errorf("cell %d reads %d after its store", i, got)
				}
			}
			return nil
		}
		best := time.Duration(1 << 62)
		for try := 0; try < 7; try++ {
			start := time.Now()
			for r := 0; r < reps; r++ {
				if err := tm.Atomically(Classic, fn); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best / time.Duration(2*len(cells)*reps)
	}
	small := perAccess(intCells(tm, 32), 128)
	big := perAccess(intCells(tm, 4096), 1)
	t.Logf("per access: 32 cells %v, 4096 cells %v", small, big)
	if big > 3*small {
		t.Fatalf("a 4096-cell transaction costs %v per access, a 32-cell one %v: more than 3x", big, small)
	}
}

// TestReadYourWritesThroughTheIndex drives one pooled handle through a
// bulk attempt that restarts, a retry with a different write set, a
// commit that sorts the write set, and reuse by a small transaction: at
// every step a load sees the transaction's own latest store and nothing
// of an earlier attempt's.
func TestReadYourWritesThroughTheIndex(t *testing.T) {
	tm := New()
	cells := intCells(tm, 300)
	// Allocated in descending order of use below, so the commit's sort by
	// cell ID permutes the whole write set.
	for i, j := 0, len(cells)-1; i < j; i, j = i+1, j-1 {
		cells[i], cells[j] = cells[j], cells[i]
	}

	// wantAfter is cell i's value once the second attempt has stored.
	wantAfter := func(i int) int {
		switch {
		case i >= 100:
			return -1
		case i%3 == 0:
			return 2 * i
		}
		return i
	}
	attempt := 0
	err := tm.Atomically(Classic, func(tx *Tx) error {
		attempt++
		if attempt == 1 {
			for i, c := range cells {
				c.Store(tx, 1000+i)
			}
			for i, c := range cells {
				if got := c.Load(tx); got != 1000+i {
					t.Errorf("attempt 1: cell %d reads %d, want %d", i, got, 1000+i)
				}
			}
			tx.Restart()
		}
		// The retry must see nothing of the restarted attempt.
		for i, c := range cells {
			if got := c.Load(tx); got != -1 {
				t.Errorf("attempt 2: cell %d reads %d from the aborted attempt", i, got)
			}
		}
		for i := 0; i < 100; i++ {
			cells[i].Store(tx, i)
		}
		for i := 0; i < 100; i += 3 {
			cells[i].Store(tx, 2*i) // overwrite in place: still one entry per cell
		}
		if len(tx.writes) != 100 {
			t.Errorf("write set holds %d entries for 100 cells", len(tx.writes))
		}
		for i, c := range cells {
			want := wantAfter(i)
			if got := c.Load(tx); got != want {
				t.Errorf("attempt 2: cell %d reads %d, want %d", i, got, want)
			}
		}
		return nil
	})
	if err != nil || attempt != 2 {
		t.Fatalf("err=%v after %d attempts, want success on the second", err, attempt)
	}

	// The sorted write set was installed cell by cell, and the pooled
	// handle's next, small, transaction finds an empty write set.
	err = tm.Atomically(Classic, func(tx *Tx) error {
		for i, c := range cells {
			want := wantAfter(i)
			if got := c.Load(tx); got != want {
				t.Errorf("committed cell %d = %d, want %d", i, got, want)
			}
		}
		cells[200].Store(tx, 7)
		if got := cells[200].Load(tx); got != 7 {
			t.Errorf("small transaction reads %d after storing 7", got)
		}
		if got := cells[5].Load(tx); got != 5 {
			t.Errorf("small transaction reads %d from cell 5, want the committed 5", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// An OrElse branch that blocks is rolled back, index included.
	err = tm.OrElse(
		func(tx *Tx) error {
			for _, c := range cells {
				c.Store(tx, 9999)
			}
			tx.Retry()
			return nil
		},
		func(tx *Tx) error {
			for i, c := range cells[:50] {
				if got := c.Load(tx); got == 9999 {
					t.Errorf("cell %d reads the rolled-back branch's store", i)
				}
			}
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
}

// TestConflictingBulkTransactionRetries: a bulk transaction that loses a
// conflict after indexing its write set commits on the retry with every
// store applied once.
func TestConflictingBulkTransactionRetries(t *testing.T) {
	tm := New()
	cells := intCells(tm, 64)
	attempt := 0
	err := tm.Atomically(Classic, func(tx *Tx) error {
		attempt++
		sum := 0
		for _, c := range cells {
			sum += c.Load(tx)
		}
		for _, c := range cells {
			c.Store(tx, sum)
		}
		if attempt == 1 {
			// A concurrent commit to a cell this attempt has read.
			done := make(chan error)
			go func() {
				done <- tm.Atomically(Classic, func(tx2 *Tx) error {
					cells[63].Store(tx2, 0)
					return nil
				})
			}()
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
		return nil
	})
	if err != nil || attempt != 2 {
		t.Fatalf("err=%v after %d attempts, want a conflict and one retry", err, attempt)
	}
	want := -63 // 63 cells still at -1, cells[63] at 0
	_ = tm.Atomically(Snapshot, func(tx *Tx) error {
		for i, c := range cells {
			if got := c.Load(tx); got != want {
				t.Errorf("cell %d = %d, want %d", i, got, want)
			}
		}
		return nil
	})
}

// TestCommitValidatesThroughTheSortedIndex: a transaction that read every
// cell it writes validates each read against its own lock at commit, by
// looking the cell up in the write set after the sort permuted it — at
// every size around the scan/index threshold. (The sharded clock always
// validates; the default one skips validation when nothing else
// committed.)
func TestCommitValidatesThroughTheSortedIndex(t *testing.T) {
	for _, n := range []int{1, writeScanMax - 1, writeScanMax, writeScanMax + 1, 2 * writeScanMax, 2*writeScanMax + 1, 100} {
		tm := New(WithClockScheme(ClockGVSharded), WithMaxRetries(3))
		cells := intCells(tm, n)
		for round := 0; round < 3; round++ {
			err := tm.Atomically(Classic, func(tx *Tx) error {
				for i := n - 1; i >= 0; i-- { // descending cell IDs: the sort reverses the set
					cells[i].Store(tx, cells[i].Load(tx)+i+1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%d cells, round %d: %v", n, round, err)
			}
		}
		_ = tm.Atomically(Snapshot, func(tx *Tx) error {
			for i, c := range cells {
				if got, want := c.Load(tx), -1+3*(i+1); got != want {
					t.Errorf("%d cells: cell %d = %d, want %d", n, i, got, want)
				}
			}
			return nil
		})
	}
}

// TestWarmBulkUpdateAllocatesNothing extends the allocation fences past
// writeScanMax: the index lives in the pooled handle, so a warm
// transaction over 64 typed cells touches the heap no more than one over
// four does.
func TestWarmBulkUpdateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := New()
	cells := intCells(tm, 64)
	fn := func(tx *Tx) error {
		for _, c := range cells {
			c.Store(tx, c.Load(tx)+1)
		}
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := tm.Atomically(Classic, fn); err != nil {
			t.Fatal(err)
		}
	}
	allocs := measureAllocs(func() {
		if err := tm.Atomically(Classic, fn); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm 64-cell update transaction allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFirstRetryDoesNotSleep: under the default options the wait before a
// first retry is a fraction of a microsecond-scale window. Handing it to
// time.Sleep cost a third of a millisecond.
func TestFirstRetryDoesNotSleep(t *testing.T) {
	tm := New()
	tx := newTx(tm, Classic)
	tx.attempt = 1
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		tx.backoffWait()
	}
	if mean := time.Since(start) / n; mean > 50*time.Microsecond {
		t.Fatalf("mean first-retry wait %v, want under 50µs", mean)
	}
}
