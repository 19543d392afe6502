package txstruct

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
)

// These fences pin TreeMapOf's allocations: reads and overwrites allocate
// nothing, and an insert that does not split allocates its value cell and
// the leaf's new block. The race runtime defeats sync.Pool reuse, so they
// skip there.

// warmTree builds a map binding the even keys 0..2n-2 to themselves.
func warmTree(t *testing.T, tm *core.TM, n int) *TreeMapOf[int] {
	t.Helper()
	m := NewTreeMapOf[int](tm, core.Snapshot)
	for k := 0; k < 2*n; k += 2 {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestTreeMapReadsAndOverwritesAllocateNothing(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := core.New()
	m := warmTree(t, tm, 4096)
	var key, seen, sink int
	get := func(tx *core.Tx) error {
		v, _ := m.GetTx(tx, key)
		sink += v
		return nil
	}
	overwrite := func(tx *core.Tx) error {
		m.PutTx(tx, key, sink)
		return nil
	}
	visit := func(k, v int) bool {
		seen++
		return true
	}
	scan := func(tx *core.Tx) error {
		seen = 0
		m.RangeTx(tx, key, key+31, visit) // 16 even keys
		return nil
	}
	for _, c := range []struct {
		name string
		sem  core.Semantics
		fn   func(*core.Tx) error
	}{
		{"get", core.Classic, get},
		{"overwrite", core.Classic, overwrite},
		{"range16", core.Snapshot, scan},
	} {
		// Warm the handle pool and every overwritten cell's records.
		for key = 0; key < 64; key += 2 {
			for i := 0; i < 4; i++ {
				if err := tm.Atomically(c.sem, c.fn); err != nil {
					t.Fatal(err)
				}
			}
		}
		key = 0
		allocs := testing.AllocsPerRun(200, func() {
			key = (key + 2) % 64
			if err := tm.Atomically(c.sem, c.fn); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f objects per op, want 0", c.name, allocs)
		}
	}
	if seen != 16 {
		t.Fatalf("range16 visited %d keys, want 16", seen)
	}
}

// TestTreeMapInsertAllocatesValueCellAndLeaf inserts a key into a leaf
// with room and deletes it again, many times: each insert allocates
// exactly two objects, the key's value cell (its first record inside it)
// and the leaf's new block. The leaf's cell, written by every round,
// cycles its version records.
func TestTreeMapInsertAllocatesValueCellAndLeaf(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := core.New()
	m := warmTree(t, tm, 1024)
	const key = 1001 // odd: never bound by warmTree
	insert := func(tx *core.Tx) error {
		if !m.PutTx(tx, key, key) {
			t.Errorf("key %d was already bound", key)
		}
		return nil
	}
	remove := func(tx *core.Tx) error {
		m.DeleteTx(tx, key)
		return nil
	}
	// Count the mallocs directly, on one P as testing.AllocsPerRun does,
	// and with the GC off: a cycle empties the handle pool and charges its
	// refill to the inserts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 200
	splits := m.Splits()
	var allocs uint64
	var before, after runtime.MemStats
	for i := -8; i < runs; i++ { // the first 8 rounds warm the records
		runtime.ReadMemStats(&before)
		if err := tm.Atomically(core.Classic, insert); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 0 {
			allocs += after.Mallocs - before.Mallocs
		}
		if err := tm.Atomically(core.Classic, remove); err != nil {
			t.Fatal(err)
		}
	}
	if m.Splits() != splits {
		t.Fatalf("the inserts split %d node(s), want none", m.Splits()-splits)
	}
	if allocs != 2*runs {
		t.Fatalf("%d inserts allocate %d objects, want exactly 2 each (value cell, leaf block)", runs, allocs)
	}
}
