package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/persistmap"
	"repro/internal/shard"
)

// bindings reads one shard's map in key order under one snapshot.
func bindings(p *shard.Partition, i int, m *persistmap.Map[int]) (keys, vals []int, err error) {
	err = p.Atomically(i, core.Snapshot, func(tx *core.Tx) error {
		keys, vals = keys[:0], vals[:0]
		m.Tree().AscendTx(tx, func(k, v int) bool {
			keys, vals = append(keys, k), append(vals, v)
			return true
		})
		return nil
	})
	return keys, vals, err
}

// audit checks the quiesced store against what the clients did: the cache
// is structurally sound and agrees with the map it fronts, every key is
// still bound on its home shard, values carry their key (or, for
// balances, sum to the initial total plus the committed deposits), and
// the cache's own hit and miss counts add up to the gets that committed.
func (r *run) audit() {
	s := r.s
	var gets, deposits uint64
	for _, c := range r.clients {
		gets += c.gets
		deposits += c.deposits
	}
	// Before the loop below, whose PeekTx probes the cache counts too.
	if sn := s.snapshot(); uint64(sn.hits+sn.misses) != gets {
		r.fail("cache hits %d + misses %d != %d gets committed", sn.hits, sn.misses, gets)
	}
	total, sum := 0, 0
	for i := 0; i < numShards; i++ {
		if err := s.caches[i].Check(); err != nil {
			r.fail("shard %d: cache.Check: %v", i, err)
		}
		keys, vals, err := bindings(s.p, i, s.maps[i])
		if err != nil {
			r.fail("shard %d: reading the map: %v", i, err)
			continue
		}
		total += len(keys)
		stale, misplaced, wrong := 0, 0, 0
		err = s.p.Atomically(i, core.Snapshot, func(tx *core.Tx) error {
			stale = 0
			for j, k := range keys {
				if cv, ok := s.caches[i].PeekTx(tx, k); ok && cv != vals[j] {
					stale++
				}
			}
			return nil
		})
		if err != nil {
			r.fail("shard %d: reading the cache: %v", i, err)
		}
		for j, k := range keys {
			sum += vals[j]
			if int(s.home[k]) != i {
				misplaced++
			}
			if !s.balances && vals[j]%numKeys != k {
				wrong++
			}
		}
		if stale+misplaced+wrong > 0 {
			r.fail("shard %d: %d cached values differ from the map, %d keys on the wrong shard, %d values do not carry their key",
				i, stale, misplaced, wrong)
		}
	}
	if total != numKeys {
		r.fail("maps hold %d keys, want %d", total, numKeys)
	}
	if s.balances {
		// Transfers net to zero, so only deposits move the total.
		if want := numKeys*(numKeys-1)/2 + int(deposits); sum != want {
			r.fail("balances sum to %d, want initial %d + %d deposits", sum, numKeys*(numKeys-1)/2, deposits)
		}
	}
}

// recovery is what crashAndRecover measured.
type recovery struct {
	seconds float64   // Replay of all shards, one after the other
	shardMs []float64 // each shard's Replay
	records int       // intact WAL records Replay found
}

// crashAndRecover ends a durable run: one more checkpoint per shard, then
// exactly recoverPuts durable puts per shard from one client (so the log
// tail replayed is the same size on every run), then the power cut —
// memFS.Crash with the WALs still open — and Replay into fresh maps on
// fresh TMs, which must reproduce the live maps binding for binding
// because every put was acknowledged before the crash.
func (r *run) crashAndRecover() {
	s := r.s
	for i := 0; i < numShards; i++ {
		r.checkpoint(i)
	}
	for _, c := range r.ckpts {
		if c.err != nil || c.supersededErr != nil {
			r.fail("checkpoint of shard %d: %v %v", c.shard, c.err, c.supersededErr)
		}
	}
	rng := rand.New(rand.NewSource(r.pl.seed))
	c := r.clients[0]
	c.cur, c.tr.on = nil, false
	var quota [numShards]int
	for left := numShards * recoverPuts; left > 0; {
		k := rng.Intn(numKeys)
		if quota[s.home[k]] == recoverPuts {
			continue
		}
		quota[s.home[k]]++
		left--
		if !c.do(classPut, k, 0) {
			r.fail("recovery: durable put of key %d failed", k)
			return
		}
	}
	s.fs.Crash()

	p2 := shard.New(numShards)
	maps2 := make([]*persistmap.Map[int], numShards)
	t0 := now()
	for i := 0; i < numShards; i++ {
		maps2[i] = persistmap.New[int](p2.TM(i))
		st, err := persistmap.NewStoreWith[int](shardDir(i), persistmap.IntCodec{}, persistmap.StoreOptions{FS: s.fs})
		if err != nil {
			r.fail("recovery: shard %d: %v", i, err)
			return
		}
		t1 := now()
		info, err := st.Replay(maps2[i])
		if err != nil {
			r.fail("recovery: shard %d: Replay: %v", i, err)
			return
		}
		r.rec.shardMs = append(r.rec.shardMs, float64(now()-t1)/1e6)
		r.rec.records += info.Records
	}
	r.rec.seconds = float64(now()-t0) / 1e9

	for i := 0; i < numShards; i++ {
		lk, lv, err := bindings(s.p, i, s.maps[i])
		rk, rv, err2 := bindings(p2, i, maps2[i])
		if err != nil || err2 != nil {
			r.fail("recovery: shard %d: reading back: %v %v", i, err, err2)
			continue
		}
		if diff := firstDiff(lk, lv, rk, rv); diff != "" {
			r.fail("recovery: shard %d differs from the live map: %s", i, diff)
		}
	}
}

func firstDiff(lk, lv, rk, rv []int) string {
	if len(lk) != len(rk) {
		return fmt.Sprintf("%d bindings live, %d recovered", len(lk), len(rk))
	}
	for j := range lk {
		if lk[j] != rk[j] || lv[j] != rv[j] {
			return fmt.Sprintf("live %d=%d, recovered %d=%d", lk[j], lv[j], rk[j], rv[j])
		}
	}
	return ""
}
