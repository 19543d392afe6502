package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/persistmap"
	"repro/internal/shard"
)

const (
	numKeys   = 1 << 16 // keys 0..65535, every one bound for the whole run
	numShards = 4
	scanSpan  = 64 // scan(k) reads keys k..k+scanSpan on k's home shard

	// preloadChunk keys are bound per set-up transaction. Small, because a
	// transaction's loads search its own write set: 256 keys per
	// transaction made set-up four times slower.
	preloadChunk = 8

	// walSegmentBytes is small enough that segments seal, and the
	// checkpointer's TrimTo has something to remove, within a 10 s window.
	walSegmentBytes = 256 << 10
)

// store is the composite under test, built from the layers' public
// functions only: a 4-shard partition, and per shard a persistent map
// fronted by a write-through cache, optionally logging to a durable WAL on
// the benchmark's memFS.
type store struct {
	p      *shard.Partition
	maps   []*persistmap.Map[int]
	caches []*cache.Cache[int]
	home   [numKeys]uint8 // ShardForKey, tabulated once for the checks

	// balances marks a store whose values are account balances
	// (xshard-txn); elsewhere a value carries its key: v % numKeys == k.
	balances bool

	fs      *memFS // nil unless durable
	stores  []*persistmap.Store[int]
	wals    []*persistmap.WAL[int]
	pinHeld [numShards]atomic.Bool // checkpointer holds shard i's pin
}

func shardDir(i int) string { return fmt.Sprintf("shard%d", i) }

// buildStore makes the store and preloads every key with the value k: the
// set-up the setup_s metric times. A durable store also writes each
// shard's first checkpoint (the preload is not logged) and attaches the
// WAL with the durable-ack barrier.
func buildStore(cacheCap int, durable, balances bool) (*store, error) {
	s := &store{p: shard.New(numShards), balances: balances}
	var keys [numShards][]int
	for k := 0; k < numKeys; k++ {
		sh := s.p.ShardForKey(k)
		s.home[k] = uint8(sh)
		keys[sh] = append(keys[sh], k)
	}
	for i := 0; i < numShards; i++ {
		m := persistmap.New[int](s.p.TM(i))
		s.maps = append(s.maps, m)
		s.caches = append(s.caches, cache.New[int](s.p.TM(i), cacheCap))
		for lo := 0; lo < len(keys[i]); lo += preloadChunk {
			chunk := keys[i][lo:min(lo+preloadChunk, len(keys[i]))]
			err := s.p.Atomically(i, core.Classic, func(tx *core.Tx) error {
				for _, k := range chunk {
					m.PutTx(tx, k, k)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("preload shard %d: %w", i, err)
			}
		}
	}
	if !durable {
		return s, nil
	}
	s.fs = newMemFS()
	for i := 0; i < numShards; i++ {
		st, err := persistmap.NewStoreWith[int](shardDir(i), persistmap.IntCodec{}, persistmap.StoreOptions{FS: s.fs})
		if err != nil {
			s.close()
			return nil, err
		}
		s.stores = append(s.stores, st)
		b, err := s.maps[i].Backup()
		if err == nil {
			_, err = st.WriteFull(b)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("first checkpoint of shard %d: %w", i, err)
		}
		w, err := st.OpenWAL(persistmap.WALOptions{SegmentBytes: walSegmentBytes})
		if err != nil {
			s.close()
			return nil, err
		}
		s.wals = append(s.wals, w)
		s.maps[i].AttachWAL(w, true)
	}
	return s, nil
}

// close stops the WAL daemons. The store must be quiesced.
func (s *store) close() error {
	var first error
	for _, w := range s.wals {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.wals = nil
	return first
}

// keysInScan is how many keys scan(k) must visit: those of k..k+scanSpan
// that live on k's home shard.
func (s *store) keysInScan(k int) int {
	n := 0
	for j := k; j <= k+scanSpan && j < numKeys; j++ {
		if s.home[j] == s.home[k] {
			n++
		}
	}
	return n
}
