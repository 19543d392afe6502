// Package shard partitions the keyspace across N independent transactional
// memories. Each shard is a full core.TM — its own global-version clock,
// pin registry and record reclamation — so disjoint-key transactions on
// different shards share NOTHING: no clock word, no pin watermark, no
// contention-manager state. That removes the single-commit-point ceiling
// a lone TM imposes no matter how striped its clock is.
//
// The price is that a transaction spanning shards can no longer ride one
// clock. AtomicallyAll pays it with two-phase commit over per-shard
// sub-transactions (core.CrossTx): every participant is driven to a
// prepared state — reads validated AND held under versioned locks, so the
// validation cannot rot while other shards prepare — and then all commit
// or all abort by the coordinator's decision. Prepares acquire shards in
// ascending index (and cells in ascending id within a shard), so two
// coordinators cannot deadlock; write versions are drawn under one
// decision mutex from a fixed clock stripe, so each shard serializes its
// cross-shard commits in exactly the global decision order — a property
// history.CheckCrossShardOrders verifies from recorded executions.
package shard

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/history"
)

// Partition is a keyspace partitioned across n per-shard TMs.
type Partition struct {
	tms []*core.TM

	// decideMu serializes the decide step of cross-shard commits: the
	// global sequence number and every participant's write version are
	// assigned under it, which is what makes per-shard commit order equal
	// global decision order. Single-shard transactions never touch it.
	decideMu sync.Mutex
	seq      uint64

	// audit, when enabled, logs one CrossDecision per committed
	// cross-shard transaction for the history checker.
	auditOn bool
	auditMu sync.Mutex
	audit   []history.CrossDecision

	// crashHook, set by white-box tests only, simulates a coordinator
	// crash at a 2PC step boundary: returning true abandons the protocol
	// with the sub-transactions left exactly as the step left them.
	crashHook func(step string, m *MultiTx) bool

	maxRetries int

	// multis recycles AtomicallyAll's coordinator state (*MultiTx).
	multis sync.Pool
}

// New builds a partition of n shards, applying the same options to every
// shard's TM (e.g. a clock scheme). Use NewWith for per-shard options.
func New(n int, opts ...core.Option) *Partition {
	return NewWith(n, func(int) []core.Option { return opts })
}

// NewWith builds a partition of n shards with per-shard options — the
// constructor for harnesses that attach a distinct recorder to each shard.
func NewWith(n int, optsFor func(shard int) []core.Option) *Partition {
	if n < 1 {
		panic(fmt.Sprintf("shard: partition needs at least one shard, got %d", n))
	}
	p := &Partition{tms: make([]*core.TM, n)}
	for i := range p.tms {
		p.tms[i] = core.New(optsFor(i)...)
	}
	return p
}

// Shards returns the number of shards.
func (p *Partition) Shards() int { return len(p.tms) }

// TM returns shard i's transactional memory. Cells created on it must only
// be touched by transactions of the same shard (single-shard fast path or
// the shard's sub-transaction of an AtomicallyAll).
func (p *Partition) TM(i int) *core.TM { return p.tms[i] }

// ShardForKey routes an integer key to its home shard (Fibonacci hashing:
// adjacent keys spread, the route is one multiply).
func (p *Partition) ShardForKey(key int) int {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(p.tms)))
}

// Atomically runs fn as a single-shard transaction on shard i — the fast
// path: one TM, zero coordination beyond the route, every semantics
// available, exactly core.TM.Atomically.
func (p *Partition) Atomically(shard int, sem core.Semantics, fn func(*core.Tx) error) error {
	return p.tms[shard].Atomically(sem, fn)
}

// WithMaxRetries bounds AtomicallyAll's retry loop (0 = retry until
// commit), mirroring core.WithMaxRetries for the cross-shard path.
func (p *Partition) WithMaxRetries(n int) *Partition {
	if n >= 0 {
		p.maxRetries = n
	}
	return p
}

// EnableAudit turns on the coordinator decision log consumed by
// history.CheckCrossShardOrders. Enable before running transactions.
func (p *Partition) EnableAudit() { p.auditOn = true }

// Decisions returns a copy of the coordinator decision log.
func (p *Partition) Decisions() []history.CrossDecision {
	p.auditMu.Lock()
	defer p.auditMu.Unlock()
	out := make([]history.CrossDecision, len(p.audit))
	copy(out, p.audit)
	return out
}

// crash fires the test-only crash hook at step, labelled "step:shard" for a
// per-participant step (shard >= 0); true means "the coordinator died here"
// and the caller must abandon the protocol immediately. The label is built
// only when a hook is set.
func (p *Partition) crash(step string, shard int, m *MultiTx) bool {
	if p.crashHook == nil {
		return false
	}
	if shard >= 0 {
		step += ":" + strconv.Itoa(shard)
	}
	return p.crashHook(step, m)
}

// backoffSeed derives per-coordinator jitter streams without any shared
// hot word beyond one add per AtomicallyAll call.
var backoffSeed atomic.Uint64

// Cross-shard retry backoff bounds (the single-shard path uses the TM's
// own window; the cross path is longer, so its window starts wider).
const (
	crossBackoffBase = 1 * time.Microsecond
	crossBackoffMax  = 200 * time.Microsecond
)
