package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// These tests fence StoreFinal (a store whose install keeps no history
// behind it, subject to pins) and the payload scrub of retired records:
// together they are what lets a structure unlink a node without the dead
// node's cells pinning its old neighbours.

type payload struct{ n int }

// pointees collects every payload pointer reachable from the cell: the
// version chain and the freelist.
func pointees(c *TypedCell[*payload]) (chain, free []*payload) {
	for r := c.h.cur.Load(); r != nil; r = r.prev.Load() {
		chain = append(chain, ptrTo[*payload](r.ptr.Load()))
	}
	for r := c.h.free; r != nil; r = r.prev.Load() {
		free = append(free, ptrTo[*payload](r.ptr.Load()))
	}
	return chain, free
}

func storePtr(t *testing.T, tm *TM, c *TypedCell[*payload], p *payload, final bool) {
	t.Helper()
	err := tm.Atomically(Classic, func(tx *Tx) error {
		if final {
			c.StoreFinal(tx, p)
		} else {
			c.Store(tx, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreFinalDropsHistory(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, &payload{0})
	for i := 1; i <= 4; i++ {
		storePtr(t, tm, c, &payload{i}, false)
	}
	if chain, _ := pointees(c); len(chain) != defaultKeepVersions {
		t.Fatalf("chain of %d records after plain stores, want %d", len(chain), defaultKeepVersions)
	}
	storePtr(t, tm, c, nil, true)
	chain, free := pointees(c)
	if len(chain) != 1 || chain[0] != nil {
		t.Fatalf("chain after StoreFinal(nil) = %v, want the one nil record", chain)
	}
	for i, p := range free {
		if p != nil {
			t.Fatalf("freelist record %d still points at payload %d", i, p.n)
		}
	}
	// The cell stays a working cell.
	storePtr(t, tm, c, &payload{9}, false)
	var got *payload
	_ = tm.Atomically(Classic, func(tx *Tx) error { got = c.Load(tx); return nil })
	if got == nil || got.n != 9 {
		t.Fatalf("cell reads %v after a store following StoreFinal, want 9", got)
	}
}

// TestRetiredRecordsHoldNoPayload: whatever retire moves to the freelist
// — the steady one-in one-out cycle, or the backlog cut after a pin
// releases — carries no pointer.
func TestRetiredRecordsHoldNoPayload(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, &payload{0})
	check := func(when string) {
		t.Helper()
		_, free := pointees(c)
		if len(free) == 0 {
			t.Fatalf("%s: empty freelist, the test exercises nothing", when)
		}
		for i, p := range free {
			if p != nil {
				t.Fatalf("%s: freelist record %d points at payload %d", when, i, p.n)
			}
		}
	}
	for i := 1; i <= 5; i++ {
		storePtr(t, tm, c, &payload{i}, false)
	}
	check("steady state")

	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 40; i++ {
		storePtr(t, tm, c, &payload{i}, false)
	}
	pin.Release()
	storePtr(t, tm, c, &payload{41}, false)
	check("after the pin-era backlog was cut")
}

// TestStoreFinalRespectsPins: a final store made while a pin is held
// keeps every record the pin can read; the first install after the pin
// releases cuts them.
func TestStoreFinalRespectsPins(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, &payload{1})
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	readAtPin := func() *payload {
		var p *payload
		if err := pin.Atomically(func(tx *Tx) error { p = c.Load(tx); return nil }); err != nil {
			t.Fatal(err)
		}
		return p
	}

	storePtr(t, tm, c, &payload{2}, false)
	storePtr(t, tm, c, nil, true)
	storePtr(t, tm, c, nil, true)
	if p := readAtPin(); p == nil || p.n != 1 {
		t.Fatalf("pinned read after final stores = %v, want payload 1", p)
	}
	if chain, _ := pointees(c); len(chain) < 2 || chain[0] != nil {
		t.Fatalf("chain under the pin = %v, want nil on top of the pinned history", chain)
	}

	pin.Release()
	storePtr(t, tm, c, nil, true)
	if chain, _ := pointees(c); len(chain) != 1 {
		t.Fatalf("chain of %d records after the first install past Release, want 1", len(chain))
	}
}

// TestSnapshotReaderRetriesPastStoreFinal: an unpinned snapshot
// transaction that started before a final store finds no version old
// enough, retries at a newer bound and reads the new value — it never
// returns a value from the wrong side of its bound.
func TestSnapshotReaderRetriesPastStoreFinal(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 1)
	attempts, returnedOnFirst := 0, false
	var got int
	err := tm.Atomically(Snapshot, func(tx *Tx) error {
		attempts++
		if attempts == 1 {
			done := make(chan error)
			go func() {
				done <- tm.Atomically(Classic, func(tx2 *Tx) error {
					c.StoreFinal(tx2, 2)
					return nil
				})
			}()
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
		got = c.Load(tx)
		returnedOnFirst = returnedOnFirst || attempts == 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if returnedOnFirst {
		t.Fatalf("the first attempt's load returned %d: its version was dropped, it had to abort", got)
	}
	if attempts != 2 || got != 2 {
		t.Fatalf("read %d after %d attempts, want 2 on the second", got, attempts)
	}
	if n := tm.Stats().Aborts[AbortSnapshotTooOld]; n != 1 {
		t.Fatalf("%d snapshot-too-old aborts, want 1", n)
	}
}

// TestStoreFinalIsAtomicForReaders: final stores rewrite a cell's current
// record in place under the cell's lock. Readers of every semantics,
// racing a writer that keeps two cells equal with final stores only,
// never see them differ (run under -race this is also the data-race check
// of the in-place rewrite).
func TestStoreFinalIsAtomicForReaders(t *testing.T) {
	tm := New()
	a, b := NewTypedCell(tm, 0), NewTypedCell(tm, 0)
	pa, pb := NewTypedCell(tm, &payload{0}), NewTypedCell(tm, &payload{0})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, sem := range []Semantics{Classic, Elastic, Snapshot} {
		wg.Add(1)
		go func(sem Semantics) {
			defer wg.Done()
			for !stop.Load() {
				err := tm.Atomically(sem, func(tx *Tx) error {
					if x, y := a.Load(tx), b.Load(tx); x != y {
						t.Errorf("%s reader saw words %d and %d", sem, x, y)
					}
					if x, y := pa.Load(tx), pb.Load(tx); x.n != y.n {
						t.Errorf("%s reader saw pointers to %d and %d", sem, x.n, y.n)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(sem)
	}
	for i := 1; i <= 20_000 && !t.Failed(); i++ {
		p := &payload{i}
		err := tm.Atomically(Classic, func(tx *Tx) error {
			a.StoreFinal(tx, i)
			b.StoreFinal(tx, i)
			pa.StoreFinal(tx, p)
			pb.StoreFinal(tx, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
