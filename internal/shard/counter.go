package shard

import (
	"sync/atomic"

	"repro/internal/boost"
	"repro/internal/core"
)

// CounterOf is a partition-wide counter: one boost.EscrowCounter per
// shard, folded on read. Increments route round-robin across shards, so
// concurrent adders share nothing but the final atomic add of a commit,
// and that only when they land on the same shard (each leg sits on its
// own cache line). Inside a cross-shard transaction the escrow rides
// whichever sub-transaction the caller already opened: the pending delta
// lives in that sub-transaction's commit-time delta log and lands, or is
// dropped, with the coordinator's decision — exactly the open-nested
// escape hatch the cross-shard path needs for high-rate counters.
type CounterOf struct {
	p    *Partition
	cs   []*boost.EscrowCounter
	next atomic.Uint64 // round-robin routing state for one-shot Adds
}

// NewCounterOf builds the per-shard escrow counters with a total initial
// value of initial (deposited on shard 0).
func NewCounterOf(p *Partition, initial int64) *CounterOf {
	c := &CounterOf{p: p, cs: make([]*boost.EscrowCounter, p.Shards())}
	for i := range c.cs {
		v := int64(0)
		if i == 0 {
			v = initial
		}
		c.cs[i] = boost.NewEscrowCounter(v)
	}
	return c
}

// Add applies delta in its own single-shard transaction on a round-robin
// shard.
func (c *CounterOf) Add(delta int64) error {
	s := int(c.next.Add(1) % uint64(len(c.cs)))
	return c.p.Atomically(s, core.Classic, func(tx *core.Tx) error {
		c.cs[s].AddTx(tx, delta)
		return nil
	})
}

// AddTx escrows delta on shard against the given sub-transaction of a
// cross-shard operation (shard must be the sub-transaction's shard, as
// with any per-shard structure).
func (c *CounterOf) AddTx(mtx *MultiTx, shard int, delta int64) {
	c.cs[shard].AddTx(mtx.Shard(shard), delta)
}

// Value folds the committed per-shard values. Like EscrowCounter.Value it
// is weakly consistent: concurrent in-flight escrows are invisible, and
// the fold is not a single atomic cut across shards — the escrow contract
// (bounded drift, exact once quiescent) is unchanged by sharding.
func (c *CounterOf) Value() int64 {
	var sum int64
	for _, ec := range c.cs {
		sum += ec.Value()
	}
	return sum
}

// Shard returns shard i's underlying escrow counter.
func (c *CounterOf) Shard(i int) *boost.EscrowCounter { return c.cs[i] }
