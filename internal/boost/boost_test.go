package boost

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
)

func TestBoostedSetCommit(t *testing.T) {
	tm := core.New()
	view := NewSetView(tm, baseline.NewStripedHashSet(8), 0)
	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		ok, err := view.AddTx(tx, 1)
		if err != nil || !ok {
			t.Errorf("add(1) = (%v, %v)", ok, err)
		}
		ok, err = view.AddTx(tx, 1)
		if err != nil || ok {
			t.Errorf("second add(1) = (%v, %v)", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tm.Atomically(core.Classic, func(tx *core.Tx) error {
		ok, err := view.ContainsTx(tx, 1)
		if err != nil || !ok {
			t.Errorf("contains(1) = (%v, %v)", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoostedSetAbortCompensates(t *testing.T) {
	tm := core.New()
	base := baseline.NewStripedHashSet(8)
	view := NewSetView(tm, base, 0)
	if _, err := base.Add(7); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		if _, err := view.AddTx(tx, 1); err != nil {
			return err
		}
		if _, err := view.RemoveTx(tx, 7); err != nil {
			return err
		}
		return boom // abort: both effects must be compensated
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if ok, _ := base.Contains(1); ok {
		t.Fatal("aborted add(1) not compensated")
	}
	if ok, _ := base.Contains(7); !ok {
		t.Fatal("aborted remove(7) not compensated")
	}
}

func TestBoostedSetConflictingKeysSerialize(t *testing.T) {
	tm := core.New()
	base := baseline.NewStripedHashSet(8)
	view := NewSetView(tm, base, 5*time.Millisecond)
	// Two transactions toggling the same key many times: the abstract
	// lock serializes them; the final state must be consistent with the
	// operation counts.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		netAdded int
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var delta int
				err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
					delta = 0
					if (w+i)%2 == 0 {
						ok, err := view.AddTx(tx, 5)
						if err != nil {
							return err
						}
						if ok {
							delta = 1
						}
					} else {
						ok, err := view.RemoveTx(tx, 5)
						if err != nil {
							return err
						}
						if ok {
							delta = -1
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				netAdded += delta
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	present, _ := base.Contains(5)
	if (netAdded == 1) != present {
		t.Fatalf("net adds %d but present=%v", netAdded, present)
	}
	if netAdded < 0 || netAdded > 1 {
		t.Fatalf("impossible net add count %d", netAdded)
	}
}

func TestBoostedSetDisjointKeysDoNotConflict(t *testing.T) {
	// Operations on different keys commute: under a contention manager
	// that would thrash on memory conflicts, boosted disjoint ops still
	// proceed (no shared cells at all).
	tm := core.New()
	view := NewSetView(tm, baseline.NewStripedHashSet(8), 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := w*1000 + i
				err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
					_, err := view.AddTx(tx, key)
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := tm.Stats()
	if st.Commits != 4*200 {
		t.Fatalf("commits = %d, want %d", st.Commits, 4*200)
	}
}

func TestBoostedLockTimeoutRestarts(t *testing.T) {
	tm := core.New(core.WithMaxRetries(3))
	base := baseline.NewStripedHashSet(8)
	view := NewSetView(tm, base, 500*time.Microsecond)

	// Hold the abstract lock for key 9 from a parked transaction.
	hold := make(chan struct{})
	parked := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = tm.Atomically(core.Classic, func(tx *core.Tx) error {
			if _, err := view.AddTx(tx, 9); err != nil {
				return err
			}
			close(parked)
			<-hold
			return nil
		})
	}()
	<-parked
	// A second transaction on the same key must time out, restart, and
	// eventually exhaust its retries.
	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		_, err := view.AddTx(tx, 9)
		return err
	})
	if !errors.Is(err, core.ErrRetryLimit) {
		t.Fatalf("got %v, want ErrRetryLimit from abstract-lock timeouts", err)
	}
	close(hold)
	wg.Wait()
}

func TestEscrowCounterCommutes(t *testing.T) {
	tm := core.New()
	c := NewEscrowCounter(100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
					c.AddTx(tx, 1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 100+800 {
		t.Fatalf("counter = %d, want 900", got)
	}
	st := tm.Stats()
	if st.TotalAborts() != 0 {
		t.Fatalf("escrow increments aborted %d times; they must never conflict", st.TotalAborts())
	}
}

func TestEscrowCounterReadsOwnWrites(t *testing.T) {
	tm := core.New()
	c := NewEscrowCounter(10)
	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		c.AddTx(tx, 5)
		c.AddTx(tx, 5)
		if got := c.GetTx(tx); got != 20 {
			t.Errorf("GetTx = %d, want 20", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Value(); got != 20 {
		t.Fatalf("committed value = %d, want 20", got)
	}
}

func TestEscrowCounterAbortDiscards(t *testing.T) {
	tm := core.New()
	c := NewEscrowCounter(10)
	boom := errors.New("boom")
	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		c.AddTx(tx, 99)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if got := c.Value(); got != 10 {
		t.Fatalf("aborted delta leaked: %d", got)
	}
}

// TestEscrowCounterAllocatesNothing fences the warm AddTx commit: the
// pending delta rides the pooled transaction handle.
func TestEscrowCounterAllocatesNothing(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := core.New()
	c := NewEscrowCounter(0)
	add := func(tx *core.Tx) error {
		c.AddTx(tx, 1)
		return nil
	}
	run := func() {
		if err := tm.Atomically(core.Classic, add); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	// Twice, keeping the smaller: a GC between runs may empty the handle
	// pool and charge the refill to one iteration.
	if a := testing.AllocsPerRun(200, run); a != 0 {
		if a = testing.AllocsPerRun(200, run); a != 0 {
			t.Errorf("warm EscrowCounter.AddTx commit allocates %.2f objects/op, want 0", a)
		}
	}
}

// TestEscrowCountersExactUnderAborts is the quiescent-exactness contract
// under fire: 8 goroutines x 10k transactions bump 4 shared counters, a
// third of the attempts abort on purpose (user errors and restarts, so
// both the give-up and the retry path drop deltas), and every counter
// ends at exactly the sum of the committed deltas. Run it under -race.
func TestEscrowCountersExactUnderAborts(t *testing.T) {
	const workers, perWorker = 8, 10_000
	tm := core.New()
	var cs [4]*EscrowCounter
	for i := range cs {
		cs[i] = NewEscrowCounter(0)
	}
	var want [workers][len(cs)]int64
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				a, b := (w+i)%len(cs), (w+3*i+1)%len(cs)
				d := int64(i%7 - 2)
				err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
					cs[a].AddTx(tx, d)
					cs[b].AddTx(tx, 1)
					if i%3 == 1 && tx.Attempt() == 1 {
						if i%2 == 1 {
							return boom
						}
						tx.Restart()
					}
					return nil
				})
				switch {
				case err == nil:
					want[w][a] += d
					want[w][b]++
				case !errors.Is(err, boom):
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, c := range cs {
		var sum int64
		for w := range want {
			sum += want[w][i]
		}
		if got := c.Value(); got != sum {
			t.Errorf("counter %d = %d, want %d", i, got, sum)
		}
	}
	const onPurpose = workers * ((perWorker + 1) / 3) // every i with i%3 == 1
	if st := tm.Stats(); st.TotalAborts() != onPurpose {
		t.Errorf("aborts = %d, want %d on purpose and none from conflicts", st.TotalAborts(), onPurpose)
	}
}
