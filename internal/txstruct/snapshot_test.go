package txstruct

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestTreeMapSnapshotRangeConsistentUnderCommitters is the acceptance
// fence for pinned iteration: a SnapshotRange over a pinned version must
// return exactly the bindings committed at pin time — across MANY
// successive range transactions on one pin — while 8+ committers mutate
// the tree. The committers preserve an invariant (they only insert/delete
// keys outside the pinned key space, splitting and unlinking nodes through
// it), and the pinned keys carry a checksum value, so a walk mixing
// versions is caught by value, by membership and by order. Run with
// -race: the tree's node and value cells recycle version records, and the
// pinned walk must never observe one mid-rewrite.
func TestTreeMapSnapshotRangeConsistentUnderCommitters(t *testing.T) {
	const (
		pinnedKeys = 64
		committers = 8
		rangeTxs   = 120
	)
	tm := core.New()
	m := NewTreeMapOf[int](tm, core.Snapshot)
	// Committed base state: even keys 0..2*pinnedKeys with val = 1000+key.
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		for k := 0; k < pinnedKeys; k++ {
			m.PutTx(tx, 2*k, 1000+2*k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; !stop.Load(); i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				odd := 1 + 2*int(rng%uint64(4*pinnedKeys))
				_ = tm.Atomically(core.Classic, func(tx *core.Tx) error {
					if i%3 == 0 {
						m.DeleteTx(tx, odd)
					} else {
						m.PutTx(tx, odd, i)
					}
					// Churn a pinned key's value too: overwrites must stay
					// invisible at the pinned version.
					m.PutTx(tx, 2*int(rng%pinnedKeys), -1)
					return nil
				})
			}
		}(w)
	}

	for i := 0; i < rangeTxs && !t.Failed(); i++ {
		// SnapshotRange's fn may re-run if the snapshot transaction
		// retries (documented contract), so the accumulator is a map —
		// idempotent under re-invocation.
		got := make(map[int]int)
		if err := m.SnapshotRange(pin, 0, math.MaxInt, func(k, v int) bool {
			got[k] = v
			return true
		}); err != nil {
			t.Errorf("range tx %d: %v", i, err)
			break
		}
		if len(got) != pinnedKeys {
			t.Errorf("range tx %d saw %d keys, want %d", i, len(got), pinnedKeys)
			break
		}
		for j := 0; j < pinnedKeys; j++ {
			if v, ok := got[2*j]; !ok || v != 1000+2*j {
				t.Errorf("range tx %d key %d = (%d,%v), want (%d,true)", i, 2*j, v, ok, 1000+2*j)
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := tm.Stats().Aborts[core.AbortSnapshotTooOld]; n != 0 {
		t.Fatalf("pinned ranges lost their version %d time(s)", n)
	}
}

// TestListAndSkipListSnapshotRange pins a version of each set, mutates,
// and checks the pinned range walks the frozen membership while a live
// snapshot sees the new one.
func TestListAndSkipListSnapshotRange(t *testing.T) {
	type rangeSet interface {
		AddTx(*core.Tx, int) bool
		RemoveTx(*core.Tx, int) bool
		SnapshotRange(*core.SnapshotPin, int, int, func(int) bool) error
	}
	tm := core.New()
	for name, s := range map[string]rangeSet{
		"linkedlist": NewList(tm, ListConfig{}),
		"skiplist":   NewSkipList(tm, core.Snapshot),
	} {
		t.Run(name, func(t *testing.T) {
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				for _, v := range []int{1, 3, 5, 7, 9} {
					s.AddTx(tx, v)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			pin, err := tm.PinSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer pin.Release()
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				s.RemoveTx(tx, 5)
				s.AddTx(tx, 4)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var got []int
			if err := s.SnapshotRange(pin, 2, 8, func(v int) bool {
				got = append(got, v)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			want := []int{3, 5, 7}
			if len(got) != len(want) {
				t.Fatalf("pinned range = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pinned range = %v, want %v", got, want)
				}
			}
			// Early stop.
			var first []int
			if err := s.SnapshotRange(pin, 0, 100, func(v int) bool {
				first = append(first, v)
				return len(first) < 2
			}); err != nil {
				t.Fatal(err)
			}
			if len(first) != 2 {
				t.Fatalf("early-stopped range returned %v, want 2 members", first)
			}
		})
	}
}

// TestTreeMapReplaceAllTx checks the copy-on-write restore primitive: the
// map's contents are replaced wholesale, the tree invariants hold, and a
// reader pinned to the pre-restore version keeps seeing the old contents.
func TestTreeMapReplaceAllTx(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[int](tm, core.Snapshot)
	for k := 0; k < 40; k++ {
		if _, err := m.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()

	keys := []int{5, 17, 99}
	vals := []int{50, 170, 990}
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		m.ReplaceAllTx(tx, keys, vals)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 5 || got[1] != 17 || got[2] != 99 {
		t.Fatalf("restored keys = %v, want [5 17 99]", got)
	}
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		if _, err := m.checkInvariants(tx); err != nil {
			t.Errorf("invariants after restore: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The pinned reader still walks the pre-restore tree.
	n := 0
	if err := m.SnapshotAscend(pin, func(k, v int) bool {
		if v != k*10 {
			t.Errorf("pinned read of key %d = %d, want %d", k, v, k*10)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("pinned ascend saw %d bindings, want 40", n)
	}
}
