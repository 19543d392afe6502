package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCoordinatorCrashPoints table-tests a coordinator death at every 2PC
// step boundary. The invariant: a prepared sub-transaction resolves by
// the DECISION — if the coordinator died before the decide step the
// surviving participants abort and nothing is visible; if it died after,
// the decision log names the write versions and the survivors commit to
// exactly that state. Either way, resolution releases every lock: a
// single-shard transaction blocked on a prepared participant's cell
// completes, it never hangs forever.
//
// The traffic case runs 100 concurrent AtomicallyAll calls on the same
// partition between the crash and the resolution. A crashed coordinator's
// MultiTx must never return to the partition's pool: if one of those calls
// reused it, it would restart or commit the frozen participants, and the
// resolution below would find them gone or the totals wrong.
func TestCoordinatorCrashPoints(t *testing.T) {
	cases := []struct {
		step         string
		decided      bool // the decision (commit) was logged before the crash
		shard0Commit bool // shard 0's participant already installed
		traffic      bool // concurrent coordinators run before resolution
	}{
		{step: "run", decided: false},
		{step: "prepared:0", decided: false},
		{step: "prepared:1", decided: false},
		{step: "decided", decided: true},
		{step: "committed:0", decided: true, shard0Commit: true},
		// A crash after the last participant committed is a completed
		// transaction: resolution is a no-op. Included to close the table.
		{step: "committed:1", decided: true, shard0Commit: true},
		{step: "prepared:1", decided: false, traffic: true},
	}
	for _, tc := range cases {
		name := tc.step
		if tc.traffic {
			name += "+traffic"
		}
		t.Run(name, func(t *testing.T) {
			p := New(2)
			p.EnableAudit()
			a := core.NewTypedCell(p.TM(0), 100)
			b := core.NewTypedCell(p.TM(1), 100)
			c := core.NewTypedCell(p.TM(0), 100)
			d := core.NewTypedCell(p.TM(1), 100)

			var frozen *MultiTx
			p.crashHook = func(step string, m *MultiTx) bool {
				if step == tc.step {
					frozen = m
					return true
				}
				return false
			}
			err := p.AtomicallyAll(func(m *MultiTx) error {
				a.Store(m.Shard(0), a.Load(m.Shard(0))-30)
				b.Store(m.Shard(1), b.Load(m.Shard(1))+30)
				return nil
			})
			if !errors.Is(err, errCoordinatorCrashed) {
				t.Fatalf("err = %v; want coordinator crash", err)
			}
			if frozen == nil {
				t.Fatalf("crash hook never fired at %q", tc.step)
			}
			p.crashHook = nil

			if tc.decided != (len(p.Decisions()) == 1) {
				t.Fatalf("decision log has %d entries, decided=%v", len(p.Decisions()), tc.decided)
			}

			const calls = 100
			if tc.traffic {
				var wg sync.WaitGroup
				for i := 0; i < calls; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						err := p.AtomicallyAll(func(m *MultiTx) error {
							c.Store(m.Shard(0), c.Load(m.Shard(0))-1)
							d.Store(m.Shard(1), d.Load(m.Shard(1))+1)
							return nil
						})
						if err != nil {
							t.Errorf("concurrent transfer: %v", err)
						}
					}()
				}
				wg.Wait()
				for i := range frozen.subs {
					if !frozen.subs[i].Prepared() {
						t.Fatalf("frozen participant %d no longer prepared: the crashed MultiTx was reused", i)
					}
				}
			}

			// A reader on shard 1 hitting the possibly-still-locked cell:
			// it must complete once the participant resolves (the default
			// CM makes blocked transactions retry, not deadlock).
			readerDone := make(chan int, 1)
			go func() {
				var v int
				p.Atomically(1, core.Classic, func(tx *core.Tx) error {
					v = b.Load(tx)
					return nil
				})
				readerDone <- v
			}()

			// Recovery: resolve every surviving participant by the logged
			// decision — commit if a decision exists, abort otherwise.
			// Participants the crashed coordinator already drove to an end
			// state are resolved and both calls no-op on them.
			for i := range frozen.subs {
				x := &frozen.subs[i]
				if tc.decided {
					if x.Resolved() {
						continue
					}
					if err := x.Commit(); err != nil {
						t.Fatalf("resolve commit shard %d: %v", i, err)
					}
				} else {
					x.Abort()
				}
			}

			wantA, wantB := 100, 100
			if tc.decided {
				wantA, wantB = 70, 130
			}
			var va, vb int
			p.Atomically(0, core.Classic, func(tx *core.Tx) error { va = a.Load(tx); return nil })
			p.Atomically(1, core.Classic, func(tx *core.Tx) error { vb = b.Load(tx); return nil })
			if va != wantA || vb != wantB {
				t.Fatalf("after resolution: a=%d b=%d; want %d/%d (atomicity broken)", va, vb, wantA, wantB)
			}
			if tc.traffic {
				var vc, vd int
				p.Atomically(0, core.Classic, func(tx *core.Tx) error { vc = c.Load(tx); return nil })
				p.Atomically(1, core.Classic, func(tx *core.Tx) error { vd = d.Load(tx); return nil })
				if vc != 100-calls || vd != 100+calls {
					t.Fatalf("concurrent transfers: c=%d d=%d; want %d/%d", vc, vd, 100-calls, 100+calls)
				}
				if n := len(p.Decisions()); n != calls {
					t.Fatalf("decision log has %d entries; want %d", n, calls)
				}
			}
			select {
			case v := <-readerDone:
				if v != wantB {
					t.Fatalf("blocked reader observed %d; want %d", v, wantB)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("reader still blocked after resolution")
			}
		})
	}
}
