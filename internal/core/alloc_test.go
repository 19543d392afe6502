package core

import (
	"fmt"
	"testing"
)

// The zero-allocation transaction lifecycle is a load-bearing property of
// the commit-path scalability work: a read-only Atomically call must not
// touch the heap once the TM's handle pool is warm. These assertions are
// the regression fence — any new allocation on the path (a closure passed
// to sort, an event escaping, a slice regrown per call) trips them.

// measureAllocs runs AllocsPerRun twice and keeps the smaller average: a
// GC between runs may evict the handle pool and charge one refill
// allocation to an unlucky iteration, which is not a hot-path regression.
func measureAllocs(f func()) float64 {
	a := testing.AllocsPerRun(200, f)
	if a == 0 {
		return 0
	}
	b := testing.AllocsPerRun(200, f)
	if b < a {
		return b
	}
	return a
}

func TestReadOnlyTransactionsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	for _, sem := range []Semantics{Classic, Elastic, Snapshot} {
		for _, scheme := range []ClockScheme{ClockGV1, ClockGVPass, ClockGVSharded} {
			t.Run(fmt.Sprintf("%s/%s", sem, scheme), func(t *testing.T) {
				tm := New(WithClockScheme(scheme))
				refs := make([]*TypedCell[any], 8)
				words := make([]*TypedCell[int], 8)
				for i := range refs {
					refs[i] = NewTypedCell[any](tm, i)
					words[i] = NewTypedCell(tm, i)
				}
				fn := func(tx *Tx) error {
					for _, c := range refs {
						_ = c.Load(tx)
					}
					for _, c := range words {
						_ = c.Load(tx)
					}
					return nil
				}
				// Warm the pool and the handle's read-set capacity.
				for i := 0; i < 3; i++ {
					if err := tm.Atomically(sem, fn); err != nil {
						t.Fatal(err)
					}
				}
				allocs := measureAllocs(func() {
					if err := tm.Atomically(sem, fn); err != nil {
						t.Error(err)
					}
				})
				if allocs != 0 {
					t.Errorf("read-only %s transaction allocates %.1f objects/op, want 0", sem, allocs)
				}
			})
		}
	}
}

// TestTypedUpdateTransactionsAllocateNothing is the headline fence of the
// typed-cell work: a warm UPDATE transaction over typed cells — word
// payloads and pointer payloads, classic and elastic (snapshot is
// read-only by construction), every clock scheme — must not touch the
// heap. Store encodes into the write set without boxing, and commit
// installs into records recycled through the cell's freelist.
func TestTypedUpdateTransactionsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	for _, sem := range []Semantics{Classic, Elastic} {
		for _, scheme := range []ClockScheme{ClockGV1, ClockGVPass, ClockGVSharded} {
			t.Run(fmt.Sprintf("word/%s/%s", sem, scheme), func(t *testing.T) {
				tm := New(WithClockScheme(scheme))
				cells := make([]*TypedCell[int], 4)
				for i := range cells {
					cells[i] = NewTypedCell(tm, i)
				}
				fn := func(tx *Tx) error {
					for _, c := range cells {
						c.Store(tx, c.Load(tx)+1)
					}
					return nil
				}
				for i := 0; i < 3; i++ {
					if err := tm.Atomically(sem, fn); err != nil {
						t.Fatal(err)
					}
				}
				allocs := measureAllocs(func() {
					if err := tm.Atomically(sem, fn); err != nil {
						t.Error(err)
					}
				})
				if allocs != 0 {
					t.Errorf("typed %s update transaction allocates %.1f objects/op, want 0", sem, allocs)
				}
			})
			t.Run(fmt.Sprintf("pointer/%s/%s", sem, scheme), func(t *testing.T) {
				tm := New(WithClockScheme(scheme))
				// Pointer payloads: rotate pre-allocated nodes through the
				// cells, the shape of a linked-structure unlink/relink.
				type nodeT struct{ v int }
				nodes := [3]*nodeT{{1}, {2}, {3}}
				cells := make([]*TypedCell[*nodeT], 3)
				for i := range cells {
					cells[i] = NewTypedCell(tm, nodes[i])
				}
				fn := func(tx *Tx) error {
					first := cells[0].Load(tx)
					for i := 0; i < len(cells)-1; i++ {
						cells[i].Store(tx, cells[i+1].Load(tx))
					}
					cells[len(cells)-1].Store(tx, first)
					return nil
				}
				for i := 0; i < 3; i++ {
					if err := tm.Atomically(sem, fn); err != nil {
						t.Fatal(err)
					}
				}
				allocs := measureAllocs(func() {
					if err := tm.Atomically(sem, fn); err != nil {
						t.Error(err)
					}
				})
				if allocs != 0 {
					t.Errorf("typed %s pointer update allocates %.1f objects/op, want 0", sem, allocs)
				}
			})
		}
	}
}

// TestTypedUpdatesStayZeroAllocWithPinBookkeeping extends the typed fence
// across the pin-aware reclamation life cycle: the watermark load added to
// every update commit must not cost an allocation, and a pin+release
// cycle — which forces chain growth and a backlog cut — must return the
// warm path to 0 allocs/op once the freelist is refilled. While the pin is
// HELD, updates must allocate (retained versions cannot be recycled, by
// design), which the middle assertion documents.
func TestTypedUpdatesStayZeroAllocWithPinBookkeeping(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	for _, scheme := range []ClockScheme{ClockGV1, ClockGVPass, ClockGVSharded} {
		t.Run(scheme.String(), func(t *testing.T) {
			tm := New(WithClockScheme(scheme))
			cells := make([]*TypedCell[int], 4)
			for i := range cells {
				cells[i] = NewTypedCell(tm, i)
			}
			fn := func(tx *Tx) error {
				for _, c := range cells {
					c.Store(tx, c.Load(tx)+1)
				}
				return nil
			}
			run := func() {
				if err := tm.Atomically(Classic, fn); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := measureAllocs(run); allocs != 0 {
				t.Errorf("warm typed update with pin bookkeeping allocates %.1f objects/op, want 0", allocs)
			}
			pin, err := tm.PinSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(50, run); allocs < 0.5 {
				t.Errorf("updates under an active pin allocate %.1f objects/op, want >= 1 (version retention)", allocs)
			}
			pin.Release()
			for i := 0; i < 3; i++ {
				run() // cut the backlog, refill the freelist
			}
			if allocs := measureAllocs(run); allocs != 0 {
				t.Errorf("warm typed update after pin release allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestUpdateTransactionsAllocateLittle fences the REF-SHAPED update path
// (TypedCell[any]): the only tolerated allocations are value boxing
// (storing a non-pointer into the any-typed cell) and the fresh version
// record each commit installs — ref-shaped records are immutable after
// publication, so they cannot be recycled. The word-shaped fence above is
// the zero-allocation counterpart.
func TestUpdateTransactionsAllocateLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := New()
	c := NewTypedCell[any](tm, 0)
	fn := func(tx *Tx) error {
		v, _ := c.Load(tx).(int)
		c.Store(tx, v+1) // +1 alloc: boxing; +1 alloc: the installed record
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
	if allocs > 2 {
		t.Errorf("single-cell ref-shaped update allocates %.1f objects/op, want <= 2 (boxing + record)", allocs)
	}
}
