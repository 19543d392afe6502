package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/persistmap"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/txstruct"
)

// The ladder measures the same logical op — get or put of one int key in a
// warm numKeys keyspace — at each rung of the stack, alone on one
// goroutine with fixed iteration counts, so that the cost each layer adds
// over the one below is a number. It does not depend on -seed.

// rungResult is one rung's cost. below names the rung it is a step up
// from; the printed delta is this rung minus that one.
type rungResult struct {
	name, below string
	ns, allocs  float64
	iters       int
}

const (
	ladderReps    = 3
	ladderKeyMask = 1<<12 - 1
)

var (
	ladderKeys [ladderKeyMask + 1]int
	ladderSink int
)

func init() {
	x := uint32(1)
	for i := range ladderKeys {
		x = x*1664525 + 1013904223
		ladderKeys[i] = int(x>>8) % numKeys
	}
}

// measureRung times iters calls of op over the fixed key sequence,
// ladderReps times, and returns the median ns and mallocs per call.
func measureRung(iters int, op func(k int)) (ns, allocs float64) {
	var nss, as []float64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < ladderReps; rep++ {
		runtime.ReadMemStats(&m0)
		t0 := now()
		for i := 0; i < iters; i++ {
			op(ladderKeys[i&ladderKeyMask])
		}
		t1 := now()
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(t1-t0)/float64(iters))
		as = append(as, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return stats.Percentile(nss, 50), stats.Percentile(as, 50)
}

// runLadder builds each rung's warm state, measures it, and drops it
// before the next rung. Iteration counts are sized so that a rung takes
// 50-300 ms per repetition and the whole ladder about 7 s.
func runLadder() ([]rungResult, error) {
	var out []rungResult
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	add := func(name, below string, iters int, op func(k int)) {
		ns, allocs := measureRung(iters, op)
		out = append(out, rungResult{name: name, below: below, ns: ns, allocs: allocs, iters: iters})
	}

	{
		words := make([]atomic.Int64, numKeys)
		for k := range words {
			words[k].Store(int64(k))
		}
		add("atomic_load", "", 2_000_000, func(k int) { ladderSink += int(words[k].Load()) })
	}

	{
		tm := core.New()
		cells := make([]*core.TypedCell[int], numKeys)
		for k := range cells {
			cells[k] = core.NewTypedCell(tm, k)
		}
		p, err := tm.Privatize()
		if err != nil {
			return nil, fmt.Errorf("ladder: privatize: %w", err)
		}
		add("detached_load", "atomic_load", 2_000_000, func(k int) { ladderSink += cells[k].LoadDetached(p) })
		p.Republish()

		var cur int
		read := func(tx *core.Tx) error { ladderSink += cells[cur].Load(tx); return nil }
		write := func(tx *core.Tx) error { cells[cur].Store(tx, cur); return nil }
		for _, r := range []struct {
			name, below string
			sem         core.Semantics
			fn          func(*core.Tx) error
		}{
			{"snapshot_read", "detached_load", core.Snapshot, read},
			{"elastic_read", "detached_load", core.Elastic, read},
			{"classic_read", "detached_load", core.Classic, read},
			{"classic_write", "classic_read", core.Classic, write},
		} {
			add(r.name, r.below, 400_000, func(k int) { cur = k; note(tm.Atomically(r.sem, r.fn)) })
		}
	}

	{
		tm := core.New()
		m := txstruct.NewTreeMapOf[int](tm, core.Snapshot)
		for k := 0; k < numKeys; k++ {
			_, err := m.Put(k, k)
			note(err)
		}
		add("tree_get", "classic_read", 100_000, func(k int) { v, _, err := m.Get(k); ladderSink += v; note(err) })
		add("tree_put", "classic_write", 20_000, func(k int) { _, err := m.Put(k, k); note(err) })
	}

	{
		tm := core.New()
		c := cache.New[int](tm, 2*numKeys)
		for k := 0; k < numKeys; k++ {
			_, err := c.Put(k, k)
			note(err)
		}
		for k := 0; k < numKeys; k++ { // set every reference bit: steady-state hits write nothing
			_, _, err := c.Get(k)
			note(err)
		}
		add("cache_get", "classic_read", 100_000, func(k int) { v, _, err := c.Get(k); ladderSink += v; note(err) })
	}

	{
		p := shard.New(numShards)
		m := shard.NewTreeMapOf[int](p, core.Snapshot)
		for k := 0; k < numKeys; k++ {
			_, err := m.Put(k, k)
			note(err)
		}
		add("shard_get", "tree_get", 100_000, func(k int) { v, _, err := m.Get(k); ladderSink += v; note(err) })
		// A partner key on another shard for every key of the sequence.
		var partner [numKeys]int
		for _, k := range ladderKeys {
			k2 := (k + 1) % numKeys
			for m.ShardFor(k2) == m.ShardFor(k) {
				k2 = (k2 + 1) % numKeys
			}
			partner[k] = k2
		}
		var cur int
		both := func(mtx *shard.MultiTx) error {
			m.PutTx(mtx, cur, cur)
			m.PutTx(mtx, partner[cur], partner[cur])
			return nil
		}
		add("xshard2_put", "tree_put", 5_000, func(k int) { cur = k; note(p.AtomicallyAll(both)) })
	}

	{
		m := persistmap.New[int](core.New())
		for k := 0; k < numKeys; k++ {
			_, err := m.Put(k, k)
			note(err)
		}
		put := func(k int) { _, err := m.Put(k, k); note(err) }
		add("persist_put_nowal", "tree_put", 20_000, put)
		st, err := persistmap.NewStoreWith[int]("ladder", persistmap.IntCodec{}, persistmap.StoreOptions{FS: newMemFS()})
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		w, err := st.OpenWAL(persistmap.WALOptions{})
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		m.AttachWAL(w, true)
		add("persist_put_durable", "persist_put_nowal", 10_000, put)
		note(w.Close())
	}

	{
		var sm sync.Map
		plain := make(map[int]int, numKeys)
		for k := 0; k < numKeys; k++ {
			sm.Store(k, k)
			plain[k] = k
		}
		add("syncmap_get", "", 2_000_000, func(k int) { v, _ := sm.Load(k); ladderSink += v.(int) })
		var mu sync.RWMutex
		add("rwmutex_map_get", "", 2_000_000, func(k int) { mu.RLock(); ladderSink += plain[k]; mu.RUnlock() })
		add("rwmutex_map_put", "", 2_000_000, func(k int) { mu.Lock(); plain[k] = k; mu.Unlock() })
	}

	{
		t := newTracer(0)
		t.on = true
		add("empty_span", "", 2_000_000, func(int) {
			t.end(t.begin(lRoute))
			t.spans, t.cur = t.spans[:0], -1
		})
	}
	return out, firstErr
}
