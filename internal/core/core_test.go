package core

import (
	"errors"
	"sync"
	"testing"
)

func mustAtomically(t *testing.T, tm *TM, sem Semantics, fn func(*Tx) error) {
	t.Helper()
	if err := tm.Atomically(sem, fn); err != nil {
		t.Fatalf("Atomically(%v) error: %v", sem, err)
	}
}

func loadInt(t *testing.T, tm *TM, c *TypedCell[int]) int {
	t.Helper()
	var out int
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		out = c.Load(tx)
		return nil
	})
	return out
}

func TestCommitMakesWritesVisible(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 1)
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		c.Store(tx, 2)
		return nil
	})
	if got := loadInt(t, tm, c); got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
}

func TestReadYourWrites(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 1)
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		c.Store(tx, 5)
		if got := c.Load(tx); got != 5 {
			t.Errorf("read-your-writes: got %v, want 5", got)
		}
		return nil
	})
}

func TestUserErrorRollsBack(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 1)
	sentinel := errors.New("user abort")
	err := tm.Atomically(Classic, func(tx *Tx) error {
		c.Store(tx, 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got error %v, want sentinel", err)
	}
	if got := loadInt(t, tm, c); got != 1 {
		t.Fatalf("write leaked after rollback: got %d, want 1", got)
	}
}

func TestStoreInSnapshotFails(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 1)
	err := tm.Atomically(Snapshot, func(tx *Tx) error {
		c.Store(tx, 2)
		return nil
	})
	if !errors.Is(err, ErrWriteInSnapshot) {
		t.Fatalf("got %v, want ErrWriteInSnapshot", err)
	}
	var semErr *SemanticsError
	if !errors.As(err, &semErr) {
		t.Fatalf("error %v is not a *SemanticsError", err)
	}
	if got := loadInt(t, tm, c); got != 1 {
		t.Fatalf("snapshot write leaked: got %d, want 1", got)
	}
}

func TestInvalidSemanticsRejected(t *testing.T) {
	tm := New()
	if err := tm.Atomically(Semantics(0), func(*Tx) error { return nil }); err == nil {
		t.Fatal("invalid semantics accepted")
	}
	if err := tm.Atomically(Semantics(42), func(*Tx) error { return nil }); err == nil {
		t.Fatal("invalid semantics accepted")
	}
}

func TestMultiCellAtomicity(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, 100)
	b := NewTypedCell(tm, 0)
	const (
		workers   = 4
		transfers = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				_ = tm.Atomically(Classic, func(tx *Tx) error {
					av := a.Load(tx)
					bv := b.Load(tx)
					a.Store(tx, av-1)
					b.Store(tx, bv+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	var sum int
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		av := a.Load(tx)
		bv := b.Load(tx)
		sum = av + bv
		return nil
	})
	if sum != 100 {
		t.Fatalf("invariant broken: a+b = %d, want 100", sum)
	}
	if got := loadInt(t, tm, b); got != workers*transfers {
		t.Fatalf("lost updates: b = %d, want %d", got, workers*transfers)
	}
}

func TestConcurrentCounterNoLostUpdates(t *testing.T) {
	for _, sem := range []Semantics{Classic, Elastic} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			tm := New()
			c := NewTypedCell(tm, 0)
			const (
				workers = 8
				incs    = 250
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < incs; i++ {
						_ = tm.Atomically(sem, func(tx *Tx) error {
							v := c.Load(tx)
							c.Store(tx, v+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			if got := loadInt(t, tm, c); got != workers*incs {
				t.Fatalf("lost updates: got %d, want %d", got, workers*incs)
			}
		})
	}
}

func TestSnapshotReadsOldVersion(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 10)

	// Start a snapshot, then commit an update "concurrently" by running
	// it before the snapshot performs its read. The snapshot must return
	// the value current at its start time.
	started := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		_ = tm.Atomically(Snapshot, func(tx *Tx) error {
			// Signal only on the first attempt; later attempts (there
			// should be none) reuse the already-closed channels.
			select {
			case <-started:
			default:
				close(started)
				<-proceed
			}
			v := c.Load(tx)
			done <- v
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		c.Store(tx, 20)
		return nil
	})
	close(proceed)
	if got := <-done; got != 10 {
		t.Fatalf("snapshot read %d, want the start-time value 10", got)
	}
	st := tm.Stats()
	if st.SnapshotOldReads == 0 {
		t.Fatal("expected the snapshot read to be served from an old version")
	}
}

func TestSnapshotTooOldAborts(t *testing.T) {
	// With a single retained version, a snapshot that raced two updates
	// must abort at least once (AbortSnapshotTooOld), then succeed on
	// retry with a fresh upper bound.
	tm := New(WithMaxVersions(1))
	c := NewTypedCell(tm, 0)
	started := make(chan struct{})
	proceed := make(chan struct{})
	var got int
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		first := true
		_ = tm.Atomically(Snapshot, func(tx *Tx) error {
			if first {
				first = false
				close(started)
				<-proceed
			}
			got = c.Load(tx)
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error { c.Store(tx, 1); return nil })
	close(proceed)
	<-donec
	if got != 1 {
		t.Fatalf("retried snapshot read %d, want 1", got)
	}
	st := tm.Stats()
	if st.Aborts[AbortSnapshotTooOld] == 0 {
		t.Fatalf("expected AbortSnapshotTooOld, stats: %+v", st)
	}
}

func TestSnapshotWithTwoVersionsSurvivesOneUpdate(t *testing.T) {
	tm := New() // default: two versions
	c := NewTypedCell(tm, 0)
	started := make(chan struct{})
	proceed := make(chan struct{})
	var got int
	var attempts int
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		_ = tm.Atomically(Snapshot, func(tx *Tx) error {
			attempts++
			if attempts == 1 {
				close(started)
				<-proceed
			}
			got = c.Load(tx)
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error { c.Store(tx, 1); return nil })
	close(proceed)
	<-donec
	if attempts != 1 {
		t.Fatalf("snapshot should commit first try with 2 versions, took %d attempts", attempts)
	}
	if got != 0 {
		t.Fatalf("snapshot read %d, want start-time value 0", got)
	}
}

func TestElasticToleratesFalseConflict(t *testing.T) {
	// An elastic parse reads a chain of cells; a concurrent commit to a
	// cell it has already moved past (outside the window) must not abort
	// it. This is the paper's linked-list false-conflict scenario.
	tm := New()
	cells := make([]*TypedCell[int], 8)
	for i := range cells {
		cells[i] = NewTypedCell(tm, i)
	}
	started := make(chan struct{})
	proceed := make(chan struct{})
	attempts := 0
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		_ = tm.Atomically(Elastic, func(tx *Tx) error {
			attempts++
			// Read the first half, pause, then the rest.
			for i := 0; i < 4; i++ {
				_ = cells[i].Load(tx)
			}
			if attempts == 1 {
				close(started)
				<-proceed
			}
			for i := 4; i < len(cells); i++ {
				_ = cells[i].Load(tx)
			}
			return nil
		})
	}()
	<-started
	// Modify cell 0: far behind the elastic window (which holds cells 2,3).
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		cells[0].Store(tx, 100)
		return nil
	})
	close(proceed)
	<-donec
	if attempts != 1 {
		t.Fatalf("elastic parse aborted on a false conflict: %d attempts", attempts)
	}

	// Under Classic the parse aborts when it reads a cell modified after
	// its start (version beyond the read version).
	attempts = 0
	started = make(chan struct{})
	proceed = make(chan struct{})
	donec = make(chan struct{})
	go func() {
		defer close(donec)
		_ = tm.Atomically(Classic, func(tx *Tx) error {
			attempts++
			for i := 0; i < 4; i++ {
				_ = cells[i].Load(tx)
			}
			if attempts == 1 {
				close(started)
				<-proceed
			}
			for i := 4; i < len(cells); i++ {
				_ = cells[i].Load(tx)
			}
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		cells[5].Store(tx, 200) // not yet read by the parse
		return nil
	})
	close(proceed)
	<-donec
	if attempts < 2 {
		t.Fatalf("classic parse should have aborted on the conflict, attempts = %d", attempts)
	}
}

func TestElasticUpdaterToleratesFalseConflictClassicAborts(t *testing.T) {
	// The paper's add() scenario: the parse ends in a write. A concurrent
	// commit behind the parse position invalidates a classic updater at
	// commit-time validation, but an elastic updater cut past it.
	run := func(sem Semantics, target int) int {
		tm := New()
		cells := make([]*TypedCell[int], 8)
		for i := range cells {
			cells[i] = NewTypedCell(tm, i)
		}
		started := make(chan struct{})
		proceed := make(chan struct{})
		attempts := 0
		donec := make(chan struct{})
		go func() {
			defer close(donec)
			_ = tm.Atomically(sem, func(tx *Tx) error {
				attempts++
				for i := 0; i < len(cells)-1; i++ {
					_ = cells[i].Load(tx)
				}
				if attempts == 1 {
					close(started)
					<-proceed
				}
				(cells[len(cells)-1]).Store(tx, 99)
				return nil
			})
		}()
		<-started
		if err := tm.Atomically(Classic, func(tx *Tx) error {
			cells[target].Store(tx, 100)
			return nil
		}); err != nil {
			t.Errorf("writer failed: %v", err)
		}
		close(proceed)
		<-donec
		return attempts
	}
	if got := run(Classic, 0); got < 2 {
		t.Errorf("classic updater should abort on behind-parse conflict, attempts = %d", got)
	}
	if got := run(Elastic, 0); got != 1 {
		t.Errorf("elastic updater should cut past behind-parse conflict, attempts = %d", got)
	}
	// A conflict inside the elastic window still aborts the updater.
	if got := run(Elastic, 6); got < 2 {
		t.Errorf("elastic updater should abort on window conflict, attempts = %d", got)
	}
}

func TestElasticWindowConflictAborts(t *testing.T) {
	// A concurrent commit to a cell INSIDE the elastic window must abort
	// the parse: no consistent cut exists.
	tm := New()
	cells := make([]*TypedCell[int], 4)
	for i := range cells {
		cells[i] = NewTypedCell(tm, i)
	}
	started := make(chan struct{})
	proceed := make(chan struct{})
	attempts := 0
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		_ = tm.Atomically(Elastic, func(tx *Tx) error {
			attempts++
			_ = cells[0].Load(tx)
			_ = cells[1].Load(tx)
			_ = cells[2].Load(tx) // window now {1, 2}
			if attempts == 1 {
				close(started)
				<-proceed
			}
			_ = cells[3].Load(tx) // validates window {1,2}
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		cells[2].Store(tx, 99) // inside the window
		return nil
	})
	close(proceed)
	<-donec
	if attempts < 2 {
		t.Fatalf("window conflict did not abort the elastic parse, attempts = %d", attempts)
	}
	if tm.Stats().Aborts[AbortWindowInvalid] == 0 {
		t.Fatalf("expected AbortWindowInvalid, stats: %+v", tm.Stats())
	}
}

func TestEarlyReleaseIgnoresConflict(t *testing.T) {
	// Classic transaction releases a read early; a conflicting commit on
	// the released cell must not abort it (section 4.1).
	tm := New()
	a := NewTypedCell(tm, 1)
	b := NewTypedCell(tm, 2)
	out := NewTypedCell(tm, 0)
	started := make(chan struct{})
	proceed := make(chan struct{})
	attempts := 0
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		_ = tm.Atomically(Classic, func(tx *Tx) error {
			attempts++
			_ = a.Load(tx)
			a.Release(tx)
			if attempts == 1 {
				close(started)
				<-proceed
			}
			v := b.Load(tx)
			out.Store(tx, v)
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		a.Store(tx, 100)
		return nil
	})
	close(proceed)
	<-donec
	if attempts != 1 {
		t.Fatalf("released read still caused an abort: %d attempts", attempts)
	}
}

func TestRetryLimit(t *testing.T) {
	tm := New(WithMaxRetries(3))
	c := NewTypedCell(tm, 0)
	hold := make(chan struct{})
	released := make(chan struct{})

	// A goroutine that keeps committing to c so the victim keeps aborting.
	go func() {
		defer close(released)
		for i := 0; ; i++ {
			select {
			case <-hold:
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

	// The victim always loses: it re-reads c after yielding, so the clock
	// moved. Force aborts deterministically via Restart for robustness.
	err := tm.Atomically(Classic, func(tx *Tx) error {
		tx.Restart()
		return nil
	})
	close(hold)
	<-released
	if !errors.Is(err, ErrRetryLimit) {
		t.Fatalf("got %v, want ErrRetryLimit", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 0)
	for i := 0; i < 10; i++ {
		mustAtomically(t, tm, Classic, func(tx *Tx) error {
			v := c.Load(tx)
			c.Store(tx, v+1)
			return nil
		})
	}
	mustAtomically(t, tm, Snapshot, func(tx *Tx) error {
		_ = c.Load(tx)
		return nil
	})
	st := tm.Stats()
	if st.Commits != 11 {
		t.Fatalf("commits = %d, want 11", st.Commits)
	}
	if st.ReadOnlyCommits != 1 {
		t.Fatalf("read-only commits = %d, want 1", st.ReadOnlyCommits)
	}
	if st.Attempts < st.Commits {
		t.Fatalf("attempts %d < commits %d", st.Attempts, st.Commits)
	}
}

func TestVersionChainTruncation(t *testing.T) {
	tm := New(WithMaxVersions(3))
	c := NewTypedCell(tm, 0)
	for i := 1; i <= 10; i++ {
		mustAtomically(t, tm, Classic, func(tx *Tx) error {
			c.Store(tx, i)
			return nil
		})
	}
	if n := chainLen(c.h.cur.Load()); n > 3 {
		t.Fatalf("version chain grew to %d, want <= 3", n)
	}
}

func TestSampleAt(t *testing.T) {
	// Build a three-version chain (10, 20, 30) and check that sampleAt
	// returns the newest record with version <= ub, or tooOld below the
	// retained horizon.
	tm := New(WithMaxVersions(3))
	c := NewTypedCell(tm, 0)
	tx := newTx(tm, Classic)
	tx.beginAttempt()
	for i, wv := range []uint64{10, 20, 30} {
		if _, ok := c.h.tryLock(tx); !ok {
			t.Fatal("lock failed")
		}
		c.h.install(encodeVal(c.h.shape, i+1), wv, tm.keepVersions, noPinWatermark)
		c.h.unlock(wv)
	}
	tx.finish(statusAborted)
	tests := []struct {
		ub     uint64
		want   int
		tooOld bool
	}{
		{ub: 35, want: 3},
		{ub: 30, want: 3},
		{ub: 25, want: 2},
		{ub: 10, want: 1},
		{ub: 9, tooOld: true},
	}
	for _, tt := range tests {
		ver, cur, v, ok, tooOld := c.h.sampleAt(tt.ub)
		if !ok {
			t.Fatalf("sampleAt(%d) not ok on a quiescent cell", tt.ub)
		}
		if cur != 30 {
			t.Fatalf("sampleAt(%d) cur = %d, want 30", tt.ub, cur)
		}
		if tooOld != tt.tooOld {
			t.Fatalf("sampleAt(%d) tooOld = %v, want %v", tt.ub, tooOld, tt.tooOld)
		}
		if tt.tooOld {
			continue
		}
		if got := decodeVal[int](c.h.shape, v); got != tt.want || ver != uint64(tt.want*10) {
			t.Fatalf("sampleAt(%d) = (%d, ver %d), want (%d, ver %d)",
				tt.ub, got, ver, tt.want, tt.want*10)
		}
	}
}

func TestMixedSemanticsStress(t *testing.T) {
	// Classic writers, elastic read-modify-writes, and snapshot readers
	// share an array of cells; the conserved-sum invariant must hold in
	// every snapshot and at the end.
	tm := New()
	const ncells = 16
	cells := make([]*TypedCell[int], ncells)
	for i := range cells {
		cells[i] = NewTypedCell(tm, 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Classic movers: transfer 1 from cell i to cell j atomically.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint64(seed)*2654435761 + 1
			next := func(n int) int {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				return int(r % uint64(n))
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from, to := next(ncells), next(ncells)
				if from == to {
					continue
				}
				sem := Classic
				if i%2 == 1 {
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
		}(w + 1)
	}

	// Snapshot summers: the sum must always be zero.
	errc := make(chan error, 4)
	var summers sync.WaitGroup
	for w := 0; w < 2; w++ {
		summers.Add(1)
		go func() {
			defer summers.Done()
			for i := 0; i < 200; i++ {
				var sum int
				err := tm.Atomically(Snapshot, func(tx *Tx) error {
					sum = 0
					for _, c := range cells {
						v := c.Load(tx)
						sum += v
					}
					return nil
				})
				if err != nil {
					errc <- err
					return
				}
				if sum != 0 {
					errc <- errors.New("snapshot saw a torn state")
					return
				}
			}
		}()
	}

	summers.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
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
		t.Fatalf("final sum %d, want 0", sum)
	}
}
