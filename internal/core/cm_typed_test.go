package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// countingCM records arbitration calls and the owner handles it saw,
// releasing a latch once the conflict has demonstrably reached the policy.
type countingCM struct {
	calls    atomic.Int64
	sawOwner atomic.Bool
	reached  chan struct{}
	once     atomic.Bool
}

func (m *countingCM) Arbitrate(tx, owner *Tx, attempt int) Decision {
	m.calls.Add(1)
	if owner != nil {
		// Exercise every accessor the ContentionManager contract permits
		// on a possibly-recycled owner handle; under -race this also
		// proves they are data-race-free against the typed commit path.
		_ = owner.ID()
		_ = owner.Age()
		_ = owner.Priority()
		_ = owner.Work()
		_ = owner.Killed()
		m.sawOwner.Store(true)
	}
	if m.once.CompareAndSwap(false, true) {
		close(m.reached)
	}
	return DecisionWait
}

func (m *countingCM) OnCommit(*Tx) {}
func (m *countingCM) OnAbort(*Tx)  {}

// TestTypedConflictsReachContentionManager pins the CM contract (see the
// ContentionManager comment in cm.go): a conflict raised by
// TypedCell.Load / TypedCell.Store on a word-shaped cell must funnel into
// Arbitrate with a live owner handle. The lock is held white-box so the
// conflict is deterministic even on a single-core host.
func TestTypedConflictsReachContentionManager(t *testing.T) {
	for _, op := range []string{"load", "store"} {
		t.Run(op, func(t *testing.T) {
			cm := &countingCM{reached: make(chan struct{})}
			tm := New(WithContentionManager(cm), WithSpinBudget(0))
			c := NewTypedCell(tm, 5)
			holder := newTx(tm, Classic)
			holder.beginAttempt()
			if _, ok := c.h.tryLock(holder); !ok {
				t.Fatal("could not take the lock")
			}

			done := make(chan int, 1)
			go func() {
				var v int
				_ = tm.Atomically(Classic, func(tx *Tx) error {
					if op == "store" {
						c.Store(tx, 6) // conflict surfaces at commit-time acquire
						return nil
					}
					v = c.Load(tx) // conflict surfaces at the read
					return nil
				})
				done <- v
			}()

			// The conflicting typed transaction must consult the CM...
			select {
			case <-cm.reached:
			case <-time.After(5 * time.Second):
				t.Fatal("typed conflict never reached the contention manager")
			}
			// ...and observe the holder as the owner.
			if !cm.sawOwner.Load() {
				t.Error("arbitration never saw the owning transaction handle")
			}
			// Release; the waiter proceeds and the transaction completes.
			c.h.unlock(0)
			select {
			case v := <-done:
				if op == "load" && v != 5 {
					t.Fatalf("typed read %d after release, want 5", v)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("typed transaction never completed after unlock")
			}
			holder.finish(statusAborted)
			if cm.calls.Load() == 0 {
				t.Fatal("no arbitration calls recorded")
			}
		})
	}
}
