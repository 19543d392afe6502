package core

import (
	"errors"
	"testing"
)

func TestDeferCommitHookRunsOnce(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 0)
	committed := 0
	aborted := 0
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		c.Store(tx, 1)
		tx.Defer(func() { committed++ }, func() { aborted++ })
		return nil
	})
	if committed != 1 || aborted != 0 {
		t.Fatalf("committed=%d aborted=%d, want 1/0", committed, aborted)
	}
}

func TestDeferAbortHooksReverseOrder(t *testing.T) {
	tm := New()
	var order []int
	boom := errors.New("boom")
	err := tm.Atomically(Classic, func(tx *Tx) error {
		tx.Defer(nil, func() { order = append(order, 1) })
		tx.Defer(nil, func() { order = append(order, 2) })
		tx.Defer(nil, func() { order = append(order, 3) })
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("compensation order %v, want [3 2 1]", order)
	}
}

func TestDeferHooksPerAttempt(t *testing.T) {
	// A retried attempt must compensate its own hooks and re-register on
	// the next run; only the committing attempt's commit hook fires.
	tm := New()
	c := NewTypedCell(tm, 0)
	commitRuns := 0
	abortRuns := 0
	attempts := 0
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		attempts++
		tx.Defer(func() { commitRuns++ }, func() { abortRuns++ })
		if attempts == 1 {
			tx.Restart()
		}
		_ = c.Load(tx)
		return nil
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if commitRuns != 1 {
		t.Fatalf("commit hooks ran %d times, want 1", commitRuns)
	}
	if abortRuns != 1 {
		t.Fatalf("abort hooks ran %d times, want 1", abortRuns)
	}
}

func TestDeferAbortHookOnValidationFailure(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, 0)
	b := NewTypedCell(tm, 0)
	started := make(chan struct{})
	proceed := make(chan struct{})
	attempts := 0
	abortHooks := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tm.Atomically(Classic, func(tx *Tx) error {
			attempts++
			tx.Defer(nil, func() { abortHooks++ })
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
		a.Store(tx, 1)
		return nil
	})
	close(proceed)
	<-done
	if attempts < 2 {
		t.Fatalf("no validation failure provoked (attempts=%d)", attempts)
	}
	if abortHooks != attempts-1 {
		t.Fatalf("abort hooks ran %d times for %d failed attempts", abortHooks, attempts-1)
	}
}
