package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestRetryBlocksUntilChange(t *testing.T) {
	tm := New()
	flag := NewTypedCell(tm, false)
	got := make(chan int, 1)
	go func() {
		var woke int
		err := tm.Atomically(Classic, func(tx *Tx) error {
			woke++
			v := flag.Load(tx)
			if !v {
				tx.Retry()
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		got <- woke
	}()
	// Give the waiter time to block, then flip the flag.
	time.Sleep(5 * time.Millisecond)
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		flag.Store(tx, true)
		return nil
	})
	select {
	case woke := <-got:
		if woke < 2 {
			t.Fatalf("expected at least 2 runs (block + wake), got %d", woke)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry never woke up")
	}
}

func TestRetryWithEmptyReadSetFails(t *testing.T) {
	tm := New()
	err := tm.Atomically(Classic, func(tx *Tx) error {
		tx.Retry()
		return nil
	})
	if !errors.Is(err, ErrRetryNoReads) {
		t.Fatalf("got %v, want ErrRetryNoReads", err)
	}
}

func TestRetryOutsideClassicFails(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 0)
	for _, sem := range []Semantics{Elastic, Snapshot} {
		err := tm.Atomically(sem, func(tx *Tx) error {
			_ = c.Load(tx)
			tx.Retry()
			return nil
		})
		if !errors.Is(err, ErrRetryNotClassic) {
			t.Fatalf("%v: got %v, want ErrRetryNotClassic", sem, err)
		}
	}
}

func TestRetryCtxCancel(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- tm.AtomicallyCtx(ctx, Classic, func(tx *Tx) error {
			_ = c.Load(tx)
			tx.Retry()
			return nil
		})
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled retry never returned")
	}
}

func TestAtomicallyCtxPreCancelled(t *testing.T) {
	tm := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := tm.AtomicallyCtx(ctx, Classic, func(tx *Tx) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("closure ran under a cancelled context")
	}
}

func TestOrElseFirstBranchWins(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, 1)
	var from string
	err := tm.OrElse(
		func(tx *Tx) error {
			if v := a.Load(tx); v == 1 {
				from = "first"
				return nil
			}
			tx.Retry()
			return nil
		},
		func(tx *Tx) error {
			from = "second"
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if from != "first" {
		t.Fatalf("branch = %q, want first", from)
	}
}

func TestOrElseFallsThrough(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, 0) // first branch wants 1
	b := NewTypedCell(tm, 9)
	var got int
	err := tm.OrElse(
		func(tx *Tx) error {
			if v := a.Load(tx); v != 1 {
				tx.Retry()
			}
			got = 1
			return nil
		},
		func(tx *Tx) error {
			got = b.Load(tx)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("got %d, want the second branch's 9", got)
	}
}

func TestOrElseDiscardsRetriedBranchWrites(t *testing.T) {
	tm := New()
	gate := NewTypedCell(tm, false)
	scratch := NewTypedCell(tm, 0)
	err := tm.OrElse(
		func(tx *Tx) error {
			scratch.Store(tx, 99) // must be rolled back
			if v := gate.Load(tx); !v {
				tx.Retry()
			}
			return nil
		},
		func(tx *Tx) error { return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := loadInt(t, tm, scratch); got != 0 {
		t.Fatalf("retried branch's write leaked: scratch = %d", got)
	}
}

func TestOrElseAllBranchesRetryThenWake(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, false)
	b := NewTypedCell(tm, false)
	var winner string
	done := make(chan error, 1)
	go func() {
		done <- tm.OrElse(
			func(tx *Tx) error {
				if v := a.Load(tx); !v {
					tx.Retry()
				}
				winner = "a"
				return nil
			},
			func(tx *Tx) error {
				if v := b.Load(tx); !v {
					tx.Retry()
				}
				winner = "b"
				return nil
			},
		)
	}()
	time.Sleep(5 * time.Millisecond)
	// Waking the SECOND branch's condition must suffice: the union of
	// both branches' reads is the wait set.
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		b.Store(tx, true)
		return nil
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if winner != "b" {
			t.Fatalf("winner = %q, want b", winner)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("orElse never woke")
	}
}

func TestOrElseNoBranches(t *testing.T) {
	tm := New()
	if err := tm.OrElse(); err == nil {
		t.Fatal("empty orElse accepted")
	}
}

func TestOrElseUserError(t *testing.T) {
	tm := New()
	boom := errors.New("boom")
	err := tm.OrElse(
		func(tx *Tx) error { return boom },
		func(tx *Tx) error { return nil },
	)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom (user errors do not fall through)", err)
	}
}

// TestBlockingQueuePattern composes Retry into a bounded blocking buffer:
// producers block on full, consumers on empty; everything transfers
// exactly once.
func TestBlockingQueuePattern(t *testing.T) {
	tm := New()
	const capacity = 4
	items := NewTypedCell(tm, []int(nil)) // slice-valued cell: small bounded buffer
	put := func(v int) error {
		return tm.Atomically(Classic, func(tx *Tx) error {
			cur := items.Load(tx)
			if len(cur) >= capacity {
				tx.Retry()
			}
			next := make([]int, len(cur)+1)
			copy(next, cur)
			next[len(cur)] = v
			items.Store(tx, next)
			return nil
		})
	}
	take := func() (int, error) {
		var v int
		err := tm.Atomically(Classic, func(tx *Tx) error {
			cur := items.Load(tx)
			if len(cur) == 0 {
				tx.Retry()
			}
			v = cur[0]
			rest := make([]int, len(cur)-1)
			copy(rest, cur[1:])
			items.Store(tx, rest)
			return nil
		})
		return v, err
	}

	const total = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := put(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := make(map[int]bool, total)
	for i := 0; i < total; i++ {
		v, err := take()
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
	}
	wg.Wait()
	if len(seen) != total {
		t.Fatalf("delivered %d values, want %d", len(seen), total)
	}
}
