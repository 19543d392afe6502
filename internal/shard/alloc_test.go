package shard

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestAtomicallyAllAllocatesNothing fences the pooled coordinator: a warm
// transfer between two shards, each a tree plus a cache as in the composite
// store, allocates nothing — the MultiTx, its participants, their lock
// lists and the crash labels are all reused or never built.
func TestAtomicallyAllAllocatesNothing(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	const shards, keys = 4, 256
	p := New(shards)
	m := NewTreeMapOf[int](p, core.Snapshot)
	caches := make([]*cache.Cache[int], shards)
	for i := range caches {
		caches[i] = cache.New[int](p.TM(i), keys)
	}
	for k := 0; k < keys; k++ {
		if _, err := m.Put(k, 1000); err != nil {
			t.Fatal(err)
		}
	}
	ka := 0
	kb := 1
	for m.ShardFor(kb) == m.ShardFor(ka) {
		kb++
	}
	sa, sb := m.ShardFor(ka), m.ShardFor(kb)
	transfer := func(mtx *MultiTx) error {
		ta, tb := mtx.Shard(sa), mtx.Shard(sb)
		va, _ := m.GetTx(mtx, ka)
		vb, _ := m.GetTx(mtx, kb)
		m.PutTx(mtx, ka, va-1)
		caches[sa].PutTx(ta, ka, va-1)
		m.PutTx(mtx, kb, vb+1)
		caches[sb].PutTx(tb, kb, vb+1)
		return nil
	}
	var err error
	for i := 0; i < 10; i++ { // warm the pools and the cache entries
		err = p.AtomicallyAll(transfer)
	}
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { err = p.AtomicallyAll(transfer) }); allocs != 0 {
		t.Errorf("warm 2-shard transfer allocates %.1f times", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	va, _, _ := m.Get(ka)
	vb, _, _ := m.Get(kb)
	if va+vb != 2000 {
		t.Fatalf("transfers did not conserve: %d + %d", va, vb)
	}
}

// TestCrossAbortBooksItsReason: a conflict unwound through the coordinator
// is booked on the shard under the reason the read saw, not as an explicit
// abort.
func TestCrossAbortBooksItsReason(t *testing.T) {
	p := New(2)
	a := core.NewTypedCell(p.TM(0), 0)
	b := core.NewTypedCell(p.TM(0), 0)
	runs := 0
	err := p.AtomicallyAll(func(m *MultiTx) error {
		runs++
		tx := m.Shard(0)
		_ = a.Load(tx)
		if runs == 1 {
			// Overwrite both cells behind the participant's read version:
			// a's change rules out extending it, so reading b aborts.
			if err := p.Atomically(0, core.Classic, func(tx *core.Tx) error {
				a.Store(tx, 1)
				b.Store(tx, 1)
				return nil
			}); err != nil {
				return err
			}
		}
		_ = b.Load(tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("closure ran %d times, want 2", runs)
	}
	st := p.TM(0).Stats()
	if st.Aborts[core.AbortExplicit] != 0 || st.Aborts[core.AbortReadInvalid] != 1 {
		t.Errorf("aborts = %v, want one read-invalid and no explicit", st.Aborts)
	}
}
