package core

import (
	"math"
	"sync"
	"testing"
)

func TestShapeSelection(t *testing.T) {
	type small struct{ a, b int32 }
	type big struct{ a, b int64 }
	type withPtr struct{ p *int }
	cases := []struct {
		name string
		got  cellShape
		want cellShape
	}{
		{"int", shapeFor[int](), shapeWord},
		{"bool", shapeFor[bool](), shapeWord},
		{"float64", shapeFor[float64](), shapeWord},
		{"uint8", shapeFor[uint8](), shapeWord},
		{"small-struct", shapeFor[small](), shapeWord},
		{"byte-array", shapeFor[[8]byte](), shapeWord},
		{"pointer", shapeFor[*int](), shapePtr},
		{"map", shapeFor[map[int]int](), shapePtr},
		{"chan", shapeFor[chan int](), shapePtr},
		{"func", shapeFor[func()](), shapePtr},
		{"string", shapeFor[string](), shapeRef},
		{"any", shapeFor[any](), shapeRef},
		{"error", shapeFor[error](), shapeRef},
		{"big-struct", shapeFor[big](), shapeRef},
		{"ptr-struct", shapeFor[withPtr](), shapeRef}, // pointer hidden in a struct must not be word-packed
		{"slice", shapeFor[[]int](), shapeRef},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("shapeFor[%s] = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// roundtrip stores then loads a value through a fresh typed cell and a
// committed update, exercising encode/decode through the full engine.
func roundtrip[T comparable](t *testing.T, tm *TM, initial, updated T) {
	t.Helper()
	c := NewTypedCell(tm, initial)
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		if got := c.Load(tx); got != initial {
			t.Errorf("initial load = %v, want %v", got, initial)
		}
		c.Store(tx, updated)
		if got := c.Load(tx); got != updated {
			t.Errorf("read-your-writes = %v, want %v", got, updated)
		}
		return nil
	})
	mustAtomically(t, tm, Snapshot, func(tx *Tx) error {
		if got := c.Load(tx); got != updated {
			t.Errorf("committed load = %v, want %v", got, updated)
		}
		return nil
	})
}

func TestTypedCellRoundtrips(t *testing.T) {
	tm := New()
	roundtrip(t, tm, 41, -7)
	roundtrip(t, tm, int8(-3), int8(100))
	roundtrip(t, tm, false, true)
	roundtrip(t, tm, math.Inf(1), math.Pi)
	roundtrip(t, tm, uint64(math.MaxUint64), uint64(0))
	type small struct{ a, b int32 }
	roundtrip(t, tm, small{1, -2}, small{-3, 4})
	x, y := 1, 2
	roundtrip(t, tm, &x, &y)
	roundtrip(t, tm, (*int)(nil), &x)
	roundtrip(t, tm, "old", "new") // ref fallback
	roundtrip[any](t, tm, 1, "mixed")

	// NaN breaks comparable equality; check its bits survive the word path.
	c := NewTypedCell(tm, 0.0)
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		c.Store(tx, math.NaN())
		return nil
	})
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		if v := c.Load(tx); !math.IsNaN(v) {
			t.Errorf("NaN roundtrip = %v", v)
		}
		return nil
	})
}

func TestTypedZeroValues(t *testing.T) {
	tm := New()
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		if v := NewTypedCell(tm, 0).Load(tx); v != 0 {
			t.Errorf("zero int = %d", v)
		}
		if v := NewTypedCell[*int](tm, nil).Load(tx); v != nil {
			t.Errorf("nil pointer = %v", v)
		}
		if v := NewTypedCell[any](tm, nil).Load(tx); v != nil {
			t.Errorf("nil any = %v", v)
		}
		if v := NewTypedCell(tm, "").Load(tx); v != "" {
			t.Errorf("zero string = %q", v)
		}
		return nil
	})
}

// TestTypedUntypedInterop is the interop contract: a ref-shaped
// TypedCell[any] and cells of the word and pointer shapes live inside ONE
// transaction — reads, writes, read-your-writes, conflict detection and
// commit atomicity all flow through the same engine regardless of
// representation.
func TestTypedUntypedInterop(t *testing.T) {
	tm := New()
	u := NewTypedCell[any](tm, 100)     // ref shape, boxed int
	w := NewTypedCell(tm, 100)          // word shape
	p := NewTypedCell(tm, &[]int{0}[0]) // pointer shape

	// One transaction mixes all three: move 10 from the ref-shaped cell to
	// the word-shaped one and redirect the pointer, atomically.
	x := 7
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		uv, _ := u.Load(tx).(int)
		u.Store(tx, uv-10)
		w.Store(tx, w.Load(tx)+10)
		p.Store(tx, &x)
		// Read-your-writes across representations inside the same tx.
		if got := u.Load(tx); got != 90 {
			t.Errorf("ref RYW = %d, want 90", got)
		}
		if got := w.Load(tx); got != 110 {
			t.Errorf("word RYW = %d, want 110", got)
		}
		if got := p.Load(tx); got != &x {
			t.Errorf("pointer RYW = %p, want %p", got, &x)
		}
		return nil
	})
	// A snapshot sees the joint commit.
	mustAtomically(t, tm, Snapshot, func(tx *Tx) error {
		uv, _ := u.Load(tx).(int)
		if sum := uv + w.Load(tx); sum != 200 {
			t.Errorf("invariant broken across representations: %d", sum)
		}
		if got := p.Load(tx); got != &x || *got != 7 {
			t.Errorf("pointer load = %v", got)
		}
		return nil
	})
}

// TestTypedUntypedInteropConcurrent hammers the mixed-representation
// invariant from many goroutines across all three semantics: transfers
// between a ref-shaped and a word-shaped account must conserve the sum for
// every classic/elastic updater and every snapshot auditor.
func TestTypedUntypedInteropConcurrent(t *testing.T) {
	tm := New()
	u := NewTypedCell[any](tm, 500)
	w := NewTypedCell(tm, 500)
	const workers, opsPer = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				switch i % 3 {
				case 0, 1: // transfer, alternating semantics
					sem := Classic
					if i%2 == 0 {
						sem = Elastic
					}
					amt := 1 + (wi+i)%5
					if wi%2 == 0 {
						amt = -amt
					}
					if err := tm.Atomically(sem, func(tx *Tx) error {
						uv, _ := u.Load(tx).(int)
						u.Store(tx, uv-amt)
						w.Store(tx, w.Load(tx)+amt)
						return nil
					}); err != nil {
						errs <- err
						return
					}
				default: // snapshot audit
					if err := tm.Atomically(Snapshot, func(tx *Tx) error {
						uv, _ := u.Load(tx).(int)
						if sum := uv + w.Load(tx); sum != 1000 {
							t.Errorf("audit saw sum %d, want 1000", sum)
						}
						return nil
					}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		uv, _ := u.Load(tx).(int)
		if sum := uv + w.Load(tx); sum != 1000 {
			t.Errorf("final sum %d, want 1000", sum)
		}
		return nil
	})
}

// TestTypedRelease pins that early release works through the typed face:
// after Release, a conflicting commit on the released cell no longer
// aborts the releasing transaction.
func TestTypedRelease(t *testing.T) {
	tm := New()
	a := NewTypedCell(tm, 1)
	b := NewTypedCell(tm, 2)
	attempts := 0
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		attempts++
		_ = a.Load(tx)
		a.Release(tx)
		if attempts == 1 {
			// Concurrent commit on the released cell: must not abort us.
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = tm.Atomically(Classic, func(tx2 *Tx) error {
					a.Store(tx2, 99)
					return nil
				})
			}()
			<-done
		}
		b.Store(tx, b.Load(tx)+1)
		return nil
	})
	if attempts != 1 {
		t.Fatalf("released-read transaction retried %d times, want 1", attempts)
	}
}

// TestTypedSnapshotReadsPastVersion pins the multiversion path for typed
// word cells: a snapshot that began before an update must read the OLD
// value out of the recycled-record chain.
func TestTypedSnapshotReadsPastVersion(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 10)
	// Commit a few updates so the chain and freelist are in steady state.
	for i := 0; i < 4; i++ {
		mustAtomically(t, tm, Classic, func(tx *Tx) error {
			c.Store(tx, c.Load(tx)+1)
			return nil
		})
	}
	started := make(chan struct{})
	release := make(chan struct{})
	got := make(chan int, 1)
	go func() {
		_ = tm.Atomically(Snapshot, func(tx *Tx) error {
			close(started)
			<-release
			got <- c.Load(tx)
			return nil
		})
	}()
	<-started
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		c.Store(tx, 1000)
		return nil
	})
	close(release)
	if v := <-got; v != 14 {
		t.Fatalf("snapshot read %d, want the pre-update value 14", v)
	}
}
