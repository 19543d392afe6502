package core

import (
	"errors"
	"testing"
)

// recSink records every redo log handed to it, with the commit version it
// was stamped at, and issues consecutive tickets.
type recSink struct {
	logs []string
	vers []uint64
}

func (s *recSink) CommitRedo(tx *Tx, log *RedoLog) uint64 {
	s.logs = append(s.logs, string(log.Buf))
	s.vers = append(s.vers, tx.CommitVersion())
	return uint64(len(s.logs))
}

// logTo appends b to the attempt's redo log for s.
func logTo(tx *Tx, s RedoSink, b string) {
	r := tx.Redo(s)
	r.Buf = append(r.Buf, b...)
}

// TestRedoLogEndOfAttempt walks the redo log through every way a
// transaction can end, the delta-log table's twin. The attempt (or branch,
// or participant) meant to commit logs "k", the ones that are not log "L",
// so the sink's record list says which logs were handed over — a log
// handed twice or leaked from a dropped attempt shows as a wrong list.
func TestRedoLogEndOfAttempt(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		want []string
		run  func(t *testing.T, tm *TM, s *recSink)
	}{
		{"commit hands over once", []string{"kk"}, func(t *testing.T, tm *TM, s *recSink) {
			c := NewTypedCell(tm, 0)
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				logTo(tx, s, "k")
				c.Store(tx, 1)
				logTo(tx, s, "k")
				if len(s.logs) != 0 {
					t.Error("log handed over before commit")
				}
				return nil
			})
		}},
		{"user error drops", nil, func(t *testing.T, tm *TM, s *recSink) {
			err := tm.Atomically(Classic, func(tx *Tx) error {
				logTo(tx, s, "L")
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatal(err)
			}
		}},
		{"restart drops the attempt's log", []string{"k"}, func(t *testing.T, tm *TM, s *recSink) {
			c := NewTypedCell(tm, 0)
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				c.Store(tx, tx.Attempt())
				if tx.Attempt() == 1 {
					logTo(tx, s, "L")
					tx.Restart()
				}
				logTo(tx, s, "k")
				return nil
			})
		}},
		{"kill drops the attempt's log", []string{"k"}, func(t *testing.T, tm *TM, s *recSink) {
			c := NewTypedCell(tm, 0)
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				c.Store(tx, tx.Attempt())
				if tx.Attempt() == 1 {
					logTo(tx, s, "L")
					tx.Kill() // honoured at commit
					return nil
				}
				logTo(tx, s, "k")
				return nil
			})
		}},
		{"conflict abort drops the attempt's log", []string{"k"}, func(t *testing.T, tm *TM, s *recSink) {
			a, b := NewTypedCell(tm, 0), NewTypedCell(tm, 0)
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				_ = a.Load(tx)
				if tx.Attempt() == 1 {
					logTo(tx, s, "L")
					mustAtomically(t, tm, Classic, func(tx2 *Tx) error {
						a.Store(tx2, 1)
						return nil
					})
				} else {
					logTo(tx, s, "k")
				}
				b.Store(tx, 1)
				return nil
			})
			if tm.Stats().Aborts[AbortValidation] != 1 {
				t.Errorf("no validation abort provoked: %+v", tm.Stats().Aborts)
			}
		}},
		{"blocking retry drops the attempt's log", []string{"k"}, func(t *testing.T, tm *TM, s *recSink) {
			ready := NewTypedCell(tm, false)
			blocked := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- tm.Atomically(Classic, func(tx *Tx) error {
					if !ready.Load(tx) {
						logTo(tx, s, "L")
						if tx.Attempt() == 1 {
							close(blocked)
						}
						tx.Retry()
					}
					logTo(tx, s, "k")
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
		{"orElse keeps only the surviving branch", []string{"k"}, func(t *testing.T, tm *TM, s *recSink) {
			empty := NewTypedCell(tm, true)
			err := tm.OrElse(
				func(tx *Tx) error {
					logTo(tx, s, "L")
					if empty.Load(tx) {
						tx.Retry()
					}
					return nil
				},
				func(tx *Tx) error {
					if got := string(tx.Redo(s).Buf); got != "" {
						t.Errorf("abandoned branch's log visible: %q", got)
					}
					logTo(tx, s, "k")
					empty.Store(tx, false)
					return nil
				},
			)
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"cross commit hands over", []string{"k"}, func(t *testing.T, tm *TM, s *recSink) {
			c := NewTypedCell(tm, 0)
			var x CrossTx
			tm.BeginCross(&x)
			c.Store(x.Tx(), 1)
			logTo(x.Tx(), s, "k")
			if !x.Prepare() {
				t.Fatal("uncontended prepare failed")
			}
			if len(s.logs) != 0 {
				t.Error("log handed over at prepare")
			}
			x.DrawVersion()
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"cross abort drops", nil, func(t *testing.T, tm *TM, s *recSink) {
			var x CrossTx
			tm.BeginCross(&x)
			logTo(x.Tx(), s, "L")
			if !x.Prepare() {
				t.Fatal("uncontended prepare failed")
			}
			x.Abort()
		}},
		{"failed prepare drops", nil, func(t *testing.T, tm *TM, s *recSink) {
			c := NewTypedCell(tm, 0)
			var x CrossTx
			tm.BeginCross(&x)
			_ = c.Load(x.Tx())
			logTo(x.Tx(), s, "L")
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
			tm := New()
			s := &recSink{}
			tc.run(t, tm, s)
			if len(s.logs) != len(tc.want) {
				t.Fatalf("sink got %q, want %q", s.logs, tc.want)
			}
			for i := range tc.want {
				if s.logs[i] != tc.want[i] {
					t.Fatalf("sink got %q, want %q", s.logs, tc.want)
				}
				if s.vers[i] == 0 {
					t.Errorf("log %d handed over before CommitVersion was valid", i)
				}
			}
		})
	}
}

// TestRedoTicketReachesDurableAck: the ticket CommitRedo returns is what the
// durable-ack barrier reads back through CommittedRedo, per sink, on both
// commit paths; a sink the transaction never logged into has no log.
func TestRedoTicketReachesDurableAck(t *testing.T) {
	tm := New()
	a, b, idle := &recSink{}, &recSink{}, &recSink{}
	var acked []uint64
	tm.SetDurableAck(func(tx *Tx) error {
		if tx.CommittedRedo(idle) != nil {
			t.Error("a sink without ops has a committed log")
		}
		for _, s := range []*recSink{a, b} {
			r := tx.CommittedRedo(s)
			if r == nil {
				t.Fatal("logged sink has no committed log")
			}
			acked = append(acked, r.Ticket())
		}
		return nil
	})
	c := NewTypedCell(tm, 0)
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		logTo(tx, a, "a1")
		logTo(tx, b, "b1")
		logTo(tx, a, "a2")
		c.Store(tx, 1)
		if tx.CommittedRedo(a) != nil {
			t.Error("CommittedRedo answered inside the transaction")
		}
		return nil
	})
	var x CrossTx
	tm.BeginCross(&x)
	c.Store(x.Tx(), 2)
	logTo(x.Tx(), b, "b2")
	logTo(x.Tx(), a, "a3")
	if !x.Prepare() {
		t.Fatal("uncontended prepare failed")
	}
	x.DrawVersion()
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := a.logs; len(got) != 2 || got[0] != "a1a2" || got[1] != "a3" {
		t.Errorf("sink a got %q", got)
	}
	if got := b.logs; len(got) != 2 || got[0] != "b1" || got[1] != "b2" {
		t.Errorf("sink b got %q", got)
	}
	if len(acked) != 4 || acked[0] != 1 || acked[1] != 1 || acked[2] != 2 || acked[3] != 2 {
		t.Errorf("durable ack read tickets %v, want [1 1 2 2]", acked)
	}
}

// TestPutTxDropsRedoSinks: a pooled handle forgets its sinks and errors but
// keeps a normal buffer's capacity; an oversized buffer is dropped.
func TestPutTxDropsRedoSinks(t *testing.T) {
	tm := New()
	s := &recSink{}
	tx := newTx(tm, Classic)
	tx.beginAttempt()
	small := tx.Redo(s)
	small.Buf = append(small.Buf, "abc"...)
	small.Err = errors.New("boom")
	big := tx.Redo(&recSink{})
	big.Buf = make([]byte, maxPooledRedoBytes+1)
	tm.putTx(tx)
	if len(tx.redo) != 0 {
		t.Fatalf("pooled handle keeps %d redo logs", len(tx.redo))
	}
	slots := tx.redo[:cap(tx.redo)]
	for i, r := range slots {
		if r.sink != nil || r.Err != nil || len(r.Buf) != 0 {
			t.Errorf("slot %d keeps sink=%v err=%v len=%d", i, r.sink, r.Err, len(r.Buf))
		}
	}
	if cap(slots[0].Buf) < 3 || slots[1].Buf != nil {
		t.Errorf("buffer capacities kept: %d and %d, want >= 3 and dropped", cap(slots[0].Buf), cap(slots[1].Buf))
	}
}

// TestRedoLoggedCommitAllocatesNothing: once the handle's buffer has grown,
// a logged update commit is as allocation-free as an unlogged one.
func TestRedoLoggedCommitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := New()
	c := NewTypedCell(tm, 0)
	s := &countSink{}
	fn := func(tx *Tx) error {
		c.Store(tx, c.Load(tx)+1)
		r := tx.Redo(s)
		r.Buf = append(r.Buf, "0123456789abcdef"...)
		return nil
	}
	for i := 0; i < 3; i++ {
		mustAtomically(t, tm, Classic, fn)
	}
	allocs := measureAllocs(func() {
		if err := tm.Atomically(Classic, fn); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("logged update allocates %.1f objects/op, want 0", allocs)
	}
	if s.bytes == 0 {
		t.Fatal("sink saw nothing")
	}
}

// countSink counts the bytes handed to it.
type countSink struct{ bytes int }

func (s *countSink) CommitRedo(_ *Tx, log *RedoLog) uint64 {
	s.bytes += len(log.Buf)
	return 0
}
