package txstruct

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
)

// youngWrites is a core.Recorder counting, over committed transactions,
// the cells written while they had fewer than keep committed writes
// behind them: the installs that find the cell's freelist still empty and
// allocate a version record. (The first keep installs of a cell allocate;
// from then on its keep+1 records cycle.) It is single-goroutine only.
type youngWrites struct {
	keep    int
	writes  []uint8 // committed writes per cell ID, saturating at keep
	pending []uint64
	young   int
}

func (r *youngWrites) Record(ev core.Event) {
	switch ev.Kind {
	case core.EventBegin:
		r.pending = r.pending[:0]
	case core.EventWrite:
		if !slices.Contains(r.pending, ev.Cell) {
			r.pending = append(r.pending, ev.Cell)
		}
	case core.EventCommit:
		for _, id := range r.pending {
			if int(r.writes[id]) < r.keep {
				r.writes[id]++
				r.young++
			}
		}
		r.pending = r.pending[:0]
	}
}

// TestTreeMapInsertAllocatesOneNode fences the node layout: an insert into
// a warm tree allocates its node — cells and their first records included
// — and nothing else beyond one record per young cell it writes.
func TestTreeMapInsertAllocatesOneNode(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	rec := &youngWrites{keep: 2, writes: make([]uint8, 1<<20), pending: make([]uint64, 0, 64)}
	tm := core.New(core.WithRecorder(rec), core.WithMaxVersions(rec.keep))
	m := NewTreeMapOf[int](tm, 0)
	keys := rand.New(rand.NewSource(7)).Perm(8192)
	for _, k := range keys[:4096] {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// testing.AllocsPerRun truncates its average to an integer; count the
	// mallocs directly, on one P as it does, and with the GC off: a cycle
	// empties the handle pool and charges its refill to the inserts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 1000
	var key int
	insert := func(tx *core.Tx) error {
		if !m.PutTx(tx, key, key) {
			t.Errorf("key %d was already bound", key)
		}
		return nil
	}
	// Re-warm the handle pool, which the GOMAXPROCS switch emptied.
	for _, key = range keys[4096:4196] {
		if err := tm.Atomically(core.Classic, insert); err != nil {
			t.Fatal(err)
		}
	}
	young := rec.young
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, key = range keys[4196 : 4196+runs] {
		if err := tm.Atomically(core.Classic, insert); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs, records := after.Mallocs-before.Mallocs, uint64(rec.young-young)
	t.Logf("%d inserts: %d objects, %d of them records of young cells", runs, allocs, records)
	// runs/100 of slack absorbs the runtime's own occasional mallocs.
	if allocs > runs+records+runs/100 {
		t.Fatalf("%d inserts allocate %d objects, want at most %d nodes + %d young-cell records",
			runs, allocs, runs, records)
	}
}
