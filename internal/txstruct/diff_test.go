package txstruct

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// diffRec materializes one SnapshotDiff emission for assertions.
type diffRec struct {
	key      int
	old, new int
	kind     DiffKind
}

func collectDiff(t *testing.T, m *TreeMapOf[int], pOld, pNew *core.SnapshotPin, chunk int) []diffRec {
	t.Helper()
	var out []diffRec
	err := m.snapshotDiff(pOld, pNew, chunk, func(key int, old, new int, kind DiffKind) bool {
		out = append(out, diffRec{key: key, old: old, new: new, kind: kind})
		return true
	})
	if err != nil {
		t.Fatalf("snapshotDiff(chunk=%d): %v", chunk, err)
	}
	return out
}

// TestSnapshotDiffBasic pins, mutates every way a binding can change, pins
// again, and checks the diff names exactly the churn — added, changed and
// deleted keys in ascending order, unchanged keys absent — across chunk
// sizes small enough to force every merge boundary shape.
func TestSnapshotDiffBasic(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[int](tm, core.Snapshot)
	for k := 0; k < 20; k++ {
		if _, err := m.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
	}
	pOld, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pOld.Release()

	// Churn: overwrite 3, delete 7 and 12, add 25 and 30, delete+reinsert
	// 15 with a NEW value (the node-replacement case version metadata alone
	// cannot see).
	mustDo := func(fn func(tx *core.Tx) error) {
		t.Helper()
		if err := tm.Atomically(core.Classic, fn); err != nil {
			t.Fatal(err)
		}
	}
	mustDo(func(tx *core.Tx) error { m.PutTx(tx, 3, 9999); return nil })
	mustDo(func(tx *core.Tx) error { m.DeleteTx(tx, 7); m.DeleteTx(tx, 12); return nil })
	mustDo(func(tx *core.Tx) error { m.PutTx(tx, 25, 125); m.PutTx(tx, 30, 130); return nil })
	mustDo(func(tx *core.Tx) error { m.DeleteTx(tx, 15); return nil })
	mustDo(func(tx *core.Tx) error { m.PutTx(tx, 15, -15); return nil })

	pNew, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pNew.Release()

	want := map[int]diffRec{
		3:  {key: 3, old: 103, new: 9999, kind: DiffChanged},
		7:  {key: 7, old: 107, kind: DiffDeleted},
		12: {key: 12, old: 112, kind: DiffDeleted},
		15: {key: 15, old: 115, new: -15, kind: DiffChanged},
		25: {key: 25, new: 125, kind: DiffAdded},
		30: {key: 30, new: 130, kind: DiffAdded},
	}
	for _, chunk := range []int{1, 2, 3, 256} {
		got := collectDiff(t, m, pOld, pNew, chunk)
		// The deletes copy leaf blocks and carry the other keys' value
		// cells over; none of that may show, so the diff matches `want`
		// exactly — no equal-value DiffChanged tolerated.
		seen := make(map[int]bool)
		prev := -1 << 62
		for _, r := range got {
			if r.key <= prev {
				t.Fatalf("chunk %d: keys out of order: %v", chunk, got)
			}
			prev = r.key
			w, ok := want[r.key]
			if !ok {
				t.Fatalf("chunk %d: unexpected diff %+v", chunk, r)
			}
			if r != w {
				t.Fatalf("chunk %d: key %d: got %+v, want %+v", chunk, r.key, r, w)
			}
			seen[r.key] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("chunk %d: saw %d of %d expected diffs: %v", chunk, len(seen), len(want), got)
		}
	}
}

// TestSnapshotDiffEmptyAndZeroChange covers the degenerate shapes: a diff
// between identical pins is empty, a diff over an empty map is empty, and
// a diff from empty to populated is all-added.
func TestSnapshotDiffEmptyAndZeroChange(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[int](tm, core.Snapshot)

	pEmpty, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pEmpty.Release()
	if got := collectDiff(t, m, pEmpty, pEmpty, 2); len(got) != 0 {
		t.Fatalf("empty-to-empty diff = %v, want none", got)
	}

	for k := 0; k < 10; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	pFull, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pFull.Release()

	got := collectDiff(t, m, pEmpty, pFull, 3)
	if len(got) != 10 {
		t.Fatalf("empty-to-full diff has %d entries, want 10: %v", len(got), got)
	}
	for i, r := range got {
		if r.kind != DiffAdded || r.key != i || r.new != i {
			t.Fatalf("entry %d = %+v, want added key %d", i, r, i)
		}
	}

	// Zero-change between distinct pins: a commit elsewhere advances the
	// clock but touches nothing in the map.
	other := core.NewTypedCell(tm, 0)
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		other.Store(tx, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pLater, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pLater.Release()
	if pLater.Version() <= pFull.Version() {
		t.Fatalf("pin versions did not advance: %d then %d", pFull.Version(), pLater.Version())
	}
	if got := collectDiff(t, m, pFull, pLater, 2); len(got) != 0 {
		t.Fatalf("zero-change diff = %v, want none", got)
	}

	// Out-of-order pins are rejected.
	if err := m.SnapshotDiff(pLater, pFull, func(int, int, int, DiffKind) bool { return true }); err == nil {
		t.Fatal("SnapshotDiff accepted pins out of order")
	}
}

// TestSnapshotDiffEarlyStop checks that fn returning false stops the walk.
func TestSnapshotDiffEarlyStop(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[int](tm, core.Snapshot)
	p0, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Release()
	for k := 0; k < 30; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	p1, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Release()
	n := 0
	if err := m.snapshotDiff(p0, p1, 4, func(int, int, int, DiffKind) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early-stopped diff emitted %d entries, want 5", n)
	}
}

// TestSnapshotDiffUnderCommitters is the concurrency fence: the diff
// between two pins is computed WHILE 8 committers keep mutating, and must
// describe exactly the pin-to-pin churn — applying it to the old pinned
// state must reproduce the new pinned state binding for binding. Run with
// -race.
func TestSnapshotDiffUnderCommitters(t *testing.T) {
	const committers = 8
	tm := core.New()
	m := NewTreeMapOf[int](tm, core.Snapshot)
	for k := 0; k < 128; k += 2 {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	pOld, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pOld.Release()
	// A burst of committed churn between the pins.
	for i := 0; i < 200; i++ {
		k := (i * 37) % 256
		if i%3 == 0 {
			if _, err := m.Delete(k); err != nil {
				t.Fatal(err)
			}
		} else if _, err := m.Put(k, 10000+i); err != nil {
			t.Fatal(err)
		}
	}
	pNew, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pNew.Release()

	// Committers keep hammering while the diff walks both pins.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int(rng % 256)
				_ = tm.Atomically(core.Classic, func(tx *core.Tx) error {
					if rng&1 == 0 {
						m.PutTx(tx, k, int(rng))
					} else {
						m.DeleteTx(tx, k)
					}
					return nil
				})
			}
		}(w)
	}

	oldState := pinnedState(t, m, pOld)
	newState := pinnedState(t, m, pNew)
	for _, chunk := range []int{3, 256} {
		reconstructed := make(map[int]int, len(oldState))
		for k, v := range oldState {
			reconstructed[k] = v
		}
		err := m.snapshotDiff(pOld, pNew, chunk, func(key int, old, new int, kind DiffKind) bool {
			switch kind {
			case DiffDeleted:
				if _, ok := reconstructed[key]; !ok {
					t.Errorf("chunk %d: delete of absent key %d", chunk, key)
				}
				delete(reconstructed, key)
			default:
				reconstructed[key] = new
			}
			return true
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if err := equalStates(reconstructed, newState); err != nil {
			t.Fatalf("chunk %d: old+diff != new: %v", chunk, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := tm.Stats().Aborts[core.AbortSnapshotTooOld]; n != 0 {
		t.Fatalf("pinned diff walks lost their version %d time(s)", n)
	}
}

// leafCount counts the tree's leaves at the current version.
func leafCount(t *testing.T, tm *core.TM, m *TreeMapOf[int]) int {
	t.Helper()
	n := 0
	var walk func(tx *core.Tx, b *block[int])
	walk = func(tx *core.Tx, b *block[int]) {
		if b.leaf {
			n++
			return
		}
		for i := 0; i < b.n; i++ {
			walk(tx, b.kids[i].Load(tx))
		}
	}
	if err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		n = 0
		walk(tx, m.root.Load(tx))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSnapshotDiffSplitAndUnlinkChurnReportsNoUnchangedKey: leaf splits
// and unlinks copy blocks and move value cells between them, and none of
// that may surface as a change. Each pin window below changes a known set
// of keys — inserts that split leaves, deletes that empty and unlink
// them — and its diff must name exactly those keys, at every chunk size.
// A window that deletes keys and inserts them again with equal values
// replaces their value cells and must diff empty.
func TestSnapshotDiffSplitAndUnlinkChurnReportsNoUnchangedKey(t *testing.T) {
	const n = 4 * TreeFanout
	tm := core.New()
	m := NewTreeMapOf[int](tm, core.Snapshot)
	for k := 0; k < 2*n; k += 2 {
		if _, err := m.Put(k, 1000+k); err != nil {
			t.Fatal(err)
		}
	}
	// window runs churn between two pins and checks the diff is want.
	window := func(name string, churn func(), want map[int]diffRec) {
		t.Helper()
		pOld, err := tm.PinSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer pOld.Release()
		churn()
		pNew, err := tm.PinSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer pNew.Release()
		for _, chunk := range []int{1, 3, 256} {
			got := collectDiff(t, m, pOld, pNew, chunk)
			if len(got) != len(want) {
				t.Fatalf("%s (chunk %d): %d diffs, want %d: %+v", name, chunk, len(got), len(want), got)
			}
			for _, r := range got {
				if r != want[r.key] {
					t.Fatalf("%s (chunk %d): key %d: got %+v, want %+v", name, chunk, r.key, r, want[r.key])
				}
			}
		}
	}
	put := func(k, v int) {
		t.Helper()
		if _, err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k int) {
		t.Helper()
		if _, err := m.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	// Splits: fill the odd keys of one stretch in windows of a few keys.
	splits := m.Splits()
	for lo := 1; lo < 2*n; lo += 2 * 8 {
		want := map[int]diffRec{}
		window("insert", func() {
			for k := lo; k < lo+2*8 && k < 2*n; k += 2 {
				put(k, 1000+k)
				want[k] = diffRec{key: k, new: 1000 + k, kind: DiffAdded}
			}
		}, want)
	}
	if m.Splits() == splits {
		t.Fatal("the inserts split no leaf; the test proves nothing")
	}

	// Unlinks: every key 0..2n-1 is bound now; delete stretches of 2B,
	// each emptying at least one leaf.
	leaves := leafCount(t, tm, m)
	for lo := 0; lo < 2*n; lo += 2 * TreeFanout {
		want := map[int]diffRec{}
		window("delete", func() {
			for k := lo; k < lo+2*TreeFanout; k++ {
				del(k)
				want[k] = diffRec{key: k, old: 1000 + k, kind: DiffDeleted}
			}
		}, want)
	}
	if after := leafCount(t, tm, m); after >= leaves {
		t.Fatalf("%d leaves after the deletes, %d before: no leaf was unlinked", after, leaves)
	}

	// Delete and reinsert with equal values: new value cells, same payload.
	for k := 0; k < 2*n; k++ {
		put(k, 1000+k)
	}
	window("reinsert", func() {
		for _, k := range []int{5, 13, 21} {
			del(k)
			put(k, 1000+k)
		}
	}, map[int]diffRec{})
}

func pinnedState(t *testing.T, m *TreeMapOf[int], p *core.SnapshotPin) map[int]int {
	t.Helper()
	state := make(map[int]int)
	if err := m.SnapshotAscend(p, func(k, v int) bool {
		state[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return state
}

func equalStates(got, want map[int]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d bindings, want %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			return fmt.Errorf("key %d = (%d,%v), want (%d,true)", k, gv, ok, v)
		}
	}
	return nil
}
