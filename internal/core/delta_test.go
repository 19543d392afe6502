package core

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestCommitTimeDeltas walks the delta log through every way a transaction
// can end. Each case bumps the counter by 1 in the attempt (or branch, or
// participant) that is meant to commit and by 100 in the ones that are
// not, so the expected value says which deltas landed — and a delta
// applied twice or leaked from a dropped attempt shows as a wrong sum.
func TestCommitTimeDeltas(t *testing.T) {
	const lost = 100
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		want int64
		run  func(t *testing.T, tm *TM, n *atomic.Int64)
	}{
		{"commit applies once", 1, func(t *testing.T, tm *TM, n *atomic.Int64) {
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				tx.AddOnCommit(n, 1)
				return nil
			})
		}},
		{"adds to one counter merge and read back", 3, func(t *testing.T, tm *TM, n *atomic.Int64) {
			var other atomic.Int64
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				tx.AddOnCommit(n, 1)
				tx.AddOnCommit(&other, 7)
				tx.AddOnCommit(n, 2)
				if got := tx.PendingOnCommit(n); got != 3 {
					t.Errorf("PendingOnCommit = %d, want 3", got)
				}
				if got := n.Load(); got != 0 {
					t.Errorf("counter moved to %d before commit", got)
				}
				return nil
			})
			if got := other.Load(); got != 7 {
				t.Errorf("second counter = %d, want 7", got)
			}
		}},
		{"user error drops", 0, func(t *testing.T, tm *TM, n *atomic.Int64) {
			err := tm.Atomically(Classic, func(tx *Tx) error {
				tx.AddOnCommit(n, lost)
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatal(err)
			}
		}},
		{"restart drops the attempt's delta", 1, func(t *testing.T, tm *TM, n *atomic.Int64) {
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				if tx.Attempt() == 1 {
					tx.AddOnCommit(n, lost)
					tx.Restart()
				}
				tx.AddOnCommit(n, 1)
				return nil
			})
		}},
		{"kill drops the attempt's delta", 1, func(t *testing.T, tm *TM, n *atomic.Int64) {
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				if tx.Attempt() == 1 {
					tx.AddOnCommit(n, lost)
					tx.Kill() // honoured at commit
					return nil
				}
				tx.AddOnCommit(n, 1)
				return nil
			})
			if tm.Stats().Aborts[AbortKilled] != 1 {
				t.Errorf("no killed abort recorded: %+v", tm.Stats().Aborts)
			}
		}},
		{"conflict abort drops the attempt's delta", 1, func(t *testing.T, tm *TM, n *atomic.Int64) {
			a, b := NewTypedCell(tm, 0), NewTypedCell(tm, 0)
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				_ = a.Load(tx)
				if tx.Attempt() == 1 {
					tx.AddOnCommit(n, lost)
					// Invalidate the read of a: commit-time validation fails.
					mustAtomically(t, tm, Classic, func(tx2 *Tx) error {
						a.Store(tx2, 1)
						return nil
					})
				} else {
					tx.AddOnCommit(n, 1)
				}
				b.Store(tx, 1)
				return nil
			})
			if tm.Stats().Aborts[AbortValidation] != 1 {
				t.Errorf("no validation abort provoked: %+v", tm.Stats().Aborts)
			}
		}},
		{"blocking retry drops the attempt's delta", 1, func(t *testing.T, tm *TM, n *atomic.Int64) {
			ready := NewTypedCell(tm, false)
			blocked := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- tm.Atomically(Classic, func(tx *Tx) error {
					if !ready.Load(tx) {
						tx.AddOnCommit(n, lost)
						if tx.Attempt() == 1 {
							close(blocked)
						}
						tx.Retry()
					}
					tx.AddOnCommit(n, 1)
					return nil
				})
			}()
			<-blocked
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				ready.Store(tx, true)
				return nil
			})
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		{"orElse keeps only the surviving branch", 1, func(t *testing.T, tm *TM, n *atomic.Int64) {
			empty := NewTypedCell(tm, true)
			err := tm.OrElse(
				func(tx *Tx) error {
					tx.AddOnCommit(n, lost)
					if empty.Load(tx) {
						tx.Retry()
					}
					return nil
				},
				func(tx *Tx) error {
					if got := tx.PendingOnCommit(n); got != 0 {
						t.Errorf("abandoned branch's delta visible: %d", got)
					}
					tx.AddOnCommit(n, 1)
					return nil
				},
			)
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"cross commit applies", 1, func(t *testing.T, tm *TM, n *atomic.Int64) {
			c := NewTypedCell(tm, 0)
			var x CrossTx
			tm.BeginCross(&x)
			c.Store(x.Tx(), 1)
			x.Tx().AddOnCommit(n, 1)
			if !x.Prepare() {
				t.Fatal("uncontended prepare failed")
			}
			if got := n.Load(); got != 0 {
				t.Errorf("counter moved to %d at prepare", got)
			}
			x.DrawVersion()
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"cross abort drops", 0, func(t *testing.T, tm *TM, n *atomic.Int64) {
			var x CrossTx
			tm.BeginCross(&x)
			x.Tx().AddOnCommit(n, lost)
			if !x.Prepare() {
				t.Fatal("uncontended prepare failed")
			}
			x.Abort()
		}},
		{"failed prepare drops", 0, func(t *testing.T, tm *TM, n *atomic.Int64) {
			c := NewTypedCell(tm, 0)
			var x CrossTx
			tm.BeginCross(&x)
			_ = c.Load(x.Tx())
			x.Tx().AddOnCommit(n, lost)
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				c.Store(tx, 1)
				return nil
			})
			if x.Prepare() {
				t.Fatal("prepare validated a stale read")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n atomic.Int64
			tc.run(t, New(), &n)
			if got := n.Load(); got != tc.want {
				t.Errorf("counter = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestDeltaOnlyCommitIsReadOnly pins what keeps a counted cache hit cheap:
// deltas are no writes, so a transaction that only bumps counters takes the
// read-only commit — no clock draw, counted in ReadOnlyCommits — and never
// waits on the durable-ack barrier, on either commit path.
func TestDeltaOnlyCommitIsReadOnly(t *testing.T) {
	acks := 0
	tm := New()
	tm.SetDurableAck(func(*Tx) error { acks++; return nil })
	c := NewTypedCell(tm, 0)
	var n atomic.Int64
	before := tm.ClockNow()
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		_ = c.Load(tx)
		tx.AddOnCommit(&n, 1)
		return nil
	})
	var x CrossTx
	tm.BeginCross(&x)
	_ = c.Load(x.Tx())
	x.Tx().AddOnCommit(&n, 1)
	if !x.Prepare() {
		t.Fatal("uncontended prepare failed")
	}
	if !x.ReadOnly() {
		t.Error("delta-only participant reports writes")
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	st := tm.Stats()
	if n.Load() != 2 || st.Commits != 2 || st.ReadOnlyCommits != 2 {
		t.Errorf("counter=%d commits=%d readOnly=%d, want 2/2/2", n.Load(), st.Commits, st.ReadOnlyCommits)
	}
	if acks != 0 {
		t.Errorf("durable ack ran %d times for delta-only commits", acks)
	}
	if now := tm.ClockNow(); now != before {
		t.Errorf("delta-only commits advanced the clock %d -> %d", before, now)
	}
}
