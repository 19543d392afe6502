// Package cache implements a transactional LRU cache over the polymorphic
// runtime — a bounded int-keyed map with least-recently-used eviction
// whose every operation is plain sequential code inside a transaction,
// composable with any other transactional state.
//
// The structure is a STRIPED LRU: the capacity is split across N stripes
// (a power of two), each owning its own hash-bucket directory, its own
// recency list (head/tail/size typed cells) and its own escrow statistics
// legs. Keys are routed to a stripe by a Fibonacci multiplicative hash, so
// promotions and evictions on different stripes never share a written
// cell — concurrent commits on unrelated keys cannot conflict on a global
// list head or tail, which is what made the unsharded cache the tree's
// worst many-core scaling story.
//
// CAPACITY IS PER STRIPE. Each stripe owns a fixed capacity/N share and
// evicts when ITS share is full, whatever room the others have: the total
// never exceeds the capacity, but a key set the hash spreads unevenly
// starts evicting before the total is reached. The default stripe count
// depends on the capacity alone, never on the host — 16, halved while a
// stripe would own fewer than 64 slots — so a cache of up to 127 entries
// is one stripe with an exact bound, and which keys survive is the same
// on every machine. Ask for more stripes with NewWith and the share
// shrinks accordingly.
//
// On top of striping, hits are READ-MOSTLY via a CLOCK-style second
// chance: every entry carries a word-shaped `touched` cell. A hit does
// not relink the entry to the MRU position; it sets the entry's private
// bit (and only when the bit is still clear, so a steady-state hot hit
// writes nothing at all). Eviction sweeps from the stripe's LRU end,
// demoting touched entries — clear the bit, rotate to MRU — before
// victimizing the first untouched one. The recency order is therefore
// the classic CLOCK approximation of LRU, maintained per stripe: there
// is no total LRU order across stripes, and within a stripe an entry's
// age is corrected lazily, at eviction time. That approximation is the
// price of a hit path that writes at most one private bit instead of
// three shared link cells.
//
// Every mutable link is a typed cell, so lookups, touches and evictions
// are ordinary transactional loads and stores: a Get, a Put that evicts,
// and the caller's own reads and writes all commit or abort as one unit.
// Hit/miss/eviction/demotion statistics go through boost.EscrowCounter
// (the escrow relaxation): counter bumps commute, so concurrent
// operations never conflict on the stats, yet aborted attempts leave no
// trace, and the bumps are no writes: a hit on a touched entry stays a
// read-only commit that allocates nothing — eviction accounting composed
// with the escrow method, exactly the pairing the paper's section 4.1
// contrasts with semantics labels.
package cache

import (
	"repro/internal/boost"
	"repro/internal/core"
)

// fibMult is the Fibonacci multiplicative hashing constant shared with
// txstruct.HashSet: the stripe index comes from the top bits of the
// product, the bucket index from bits 32+, so the two routings stay
// decorrelated.
const fibMult = 0x9e3779b97f4a7c15

// entry is one cached binding. The key is immutable; the value and every
// link are typed cells (pointer-shaped payloads: no boxing, and version
// records recycle), embedded in the entry with their first records, so an
// entry is one allocation and a touch or eviction allocates only the
// records a cell takes on its first WithMaxVersions updates, after which
// its records cycle. touched is the CLOCK reference bit: word-shaped, one
// cell per entry, written blind by the first hit after insertion or
// demotion and cleared only by the eviction sweep.
type entry[V any] struct {
	key     int
	val     core.TypedCell[V]
	prev    core.TypedCell[*entry[V]] // toward the MRU end
	next    core.TypedCell[*entry[V]] // toward the LRU end
	hnext   core.TypedCell[*entry[V]] // hash-bucket chain
	touched core.TypedCell[bool]      // second-chance reference bit
}

// stripe is one independent slice of the cache: its own directory, its
// own recency list and its own statistics legs. No cell is shared
// between stripes, so transactions confined to different stripes are
// disjoint-access parallel.
type stripe[V any] struct {
	capacity int
	mask     uint64
	buckets  []core.TypedCell[*entry[V]]
	head     core.TypedCell[*entry[V]] // most recently used
	tail     core.TypedCell[*entry[V]] // least recently used; sweep origin
	size     core.TypedCell[int]

	hits      *boost.EscrowCounter
	misses    *boost.EscrowCounter
	evictions *boost.EscrowCounter
	demotions *boost.EscrowCounter // second-chance rotations at eviction time
}

// Cache is a transactional striped LRU cache mapping int keys to V
// values. Create one with New (default stripe count) or NewWith, and use
// it inside transactions of the same TM (the Tx-suffixed methods), or
// through the one-shot wrappers.
type Cache[V any] struct {
	tm       *core.TM
	capacity int
	stripes  []*stripe[V]
	sshift   uint // 64 - log2(len(stripes)); x >> sshift routes to a stripe
}

// Default stripe count: maxDefaultStripes, halved while a stripe would own
// fewer than minStripeSlots slots. A function of the capacity only.
const (
	maxDefaultStripes = 16
	minStripeSlots    = 64
)

// Options configures NewWith.
type Options struct {
	// Stripes is the number of independent stripes; it is rounded up to a
	// power of two and capped so every stripe owns at least one slot.
	// Zero selects the capacity-derived default (see the package comment).
	Stripes int
}

// New builds an empty cache bounded to capacity entries (minimum 1) with
// the default stripe count.
func New[V any](tm *core.TM, capacity int) *Cache[V] {
	return NewWith[V](tm, capacity, Options{})
}

// NewWith builds an empty cache bounded to capacity entries (minimum 1)
// across the configured number of stripes. The capacity is split across
// stripes (earlier stripes absorb the remainder); each stripe's
// directory is sized to keep bucket chains short at full capacity.
func NewWith[V any](tm *core.TM, capacity int, opts Options) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	ns, minSlots := ceilPow2(opts.Stripes), 1 // every stripe must own at least one slot
	if opts.Stripes <= 0 {
		ns, minSlots = maxDefaultStripes, minStripeSlots
	}
	for ns > 1 && capacity/ns < minSlots {
		ns >>= 1
	}
	c := &Cache[V]{
		tm:       tm,
		capacity: capacity,
		stripes:  make([]*stripe[V], ns),
		sshift:   64 - log2(uint(ns)),
	}
	base, rem := capacity/ns, capacity%ns
	for i := range c.stripes {
		sc := base
		if i < rem {
			sc++
		}
		nb := ceilPow2(sc)
		s := &stripe[V]{
			capacity:  sc,
			mask:      uint64(nb - 1),
			buckets:   make([]core.TypedCell[*entry[V]], nb),
			hits:      boost.NewEscrowCounter(0),
			misses:    boost.NewEscrowCounter(0),
			evictions: boost.NewEscrowCounter(0),
			demotions: boost.NewEscrowCounter(0),
		}
		core.InitTypedCell(tm, &s.head, nil)
		core.InitTypedCell(tm, &s.tail, nil)
		core.InitTypedCell(tm, &s.size, 0)
		for b := range s.buckets {
			core.InitTypedCell(tm, &s.buckets[b], nil)
		}
		c.stripes[i] = s
	}
	return c
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func log2(n uint) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Capacity returns the configured total bound.
func (c *Cache[V]) Capacity() int { return c.capacity }

// Stripes returns the number of independent stripes.
func (c *Cache[V]) Stripes() int { return len(c.stripes) }

// owns panics when tx was begun on a different TM than the cache's own.
// With several TMs in one process (internal/shard partitions), a foreign
// transaction reading these cells would mix two clock domains' versions,
// and its escrow stats hooks would accrue against the wrong commit point
// — both silently. Misuse panics, like the core runtime's own. Every
// stripe's cells belong to the one TM, so the single check at the cache
// boundary covers them all.
func (c *Cache[V]) owns(tx *core.Tx) {
	if tx.TM() != c.tm {
		panic("cache: transaction belongs to a different TM than this cache")
	}
}

// stripeFor routes key to its stripe: the top log2(N) bits of the
// Fibonacci product, decorrelated from the in-stripe bucket bits.
func (c *Cache[V]) stripeFor(key int) *stripe[V] {
	return c.stripes[(uint64(key)*fibMult)>>c.sshift]
}

// stripeIndex is stripeFor returning the index (Detach's per-stripe
// burst tallies key on it).
func (c *Cache[V]) stripeIndex(key int) int {
	return int((uint64(key) * fibMult) >> c.sshift)
}

// bucket returns the chain head cell for key within the stripe.
func (s *stripe[V]) bucket(key int) *core.TypedCell[*entry[V]] {
	return &s.buckets[(uint64(key)*fibMult>>32)&s.mask]
}

// lookupTx walks the key's bucket chain.
func (s *stripe[V]) lookupTx(tx *core.Tx, key int) *entry[V] {
	for e := s.bucket(key).Load(tx); e != nil; e = e.hnext.Load(tx) {
		if e.key == key {
			return e
		}
	}
	return nil
}

// touchTx records a use for the second-chance sweep: set the entry's
// reference bit if it is still clear. The hot case — bit already set —
// writes nothing, so a steady-state hit is a read-only transaction; the
// cold case writes one cell private to this entry, which commutes with
// hits on every other entry (and conflicts only with a concurrent first
// toucher of the SAME entry, or with an eviction sweep passing it).
func (s *stripe[V]) touchTx(tx *core.Tx, e *entry[V]) {
	if !e.touched.Load(tx) {
		e.touched.Store(tx, true)
	}
}

// GetTx returns the cached value and records the use for the
// second-chance eviction sweep (it does NOT relink the entry — recency
// is corrected lazily, at eviction time). A hit on an untouched entry
// writes that entry's private bit; a hit on an already-touched entry is
// read-only. Use PeekTx for a probe that leaves recency state alone.
// Hit/miss stats accrue at commit on the key's stripe.
func (c *Cache[V]) GetTx(tx *core.Tx, key int) (V, bool) {
	c.owns(tx)
	s := c.stripeFor(key)
	e := s.lookupTx(tx, key)
	if e == nil {
		s.misses.AddTx(tx, 1)
		var zero V
		return zero, false
	}
	s.hits.AddTx(tx, 1)
	s.touchTx(tx, e)
	return e.val.Load(tx), true
}

// PeekTx returns the cached value without recording a use: combined with
// Snapshot semantics it probes a live cache with zero write-path
// interference.
func (c *Cache[V]) PeekTx(tx *core.Tx, key int) (V, bool) {
	c.owns(tx)
	s := c.stripeFor(key)
	e := s.lookupTx(tx, key)
	if e == nil {
		s.misses.AddTx(tx, 1)
		var zero V
		return zero, false
	}
	s.hits.AddTx(tx, 1)
	return e.val.Load(tx), true
}

// PutTx binds key to val, evicting within the key's stripe when that
// stripe is at its capacity share. A put to an existing key updates the
// value in place and records a use; a new key is inserted at the
// stripe's MRU end with its reference bit clear. It reports whether the
// key was new.
func (c *Cache[V]) PutTx(tx *core.Tx, key int, val V) bool {
	c.owns(tx)
	s := c.stripeFor(key)
	if e := s.lookupTx(tx, key); e != nil {
		e.val.Store(tx, val)
		s.touchTx(tx, e)
		return false
	}
	if n := s.size.Load(tx); n >= s.capacity {
		s.evictTx(tx)
	} else {
		s.size.Store(tx, n+1)
	}
	// The entry is born linked — at the bucket chain's head and the
	// recency list's MRU end — so the insert stores only to the cells
	// around it, never to its own.
	b := s.bucket(key)
	h := s.head.Load(tx)
	e := &entry[V]{key: key}
	core.InitTypedCell(c.tm, &e.val, val)
	core.InitTypedCell(c.tm, &e.prev, nil)
	core.InitTypedCell(c.tm, &e.next, h)
	core.InitTypedCell(c.tm, &e.hnext, b.Load(tx))
	core.InitTypedCell(c.tm, &e.touched, false)
	b.Store(tx, e)
	s.linkFrontTx(tx, e, h)
	return true
}

// LenTx returns the number of cached entries, folded across stripes.
// The fold reads every stripe's size cell, so a LenTx transaction
// validates against concurrent inserts anywhere in the cache — use it
// under Snapshot semantics (or Len, which does) when probing a hot
// cache.
func (c *Cache[V]) LenTx(tx *core.Tx) int {
	c.owns(tx)
	n := 0
	for _, s := range c.stripes {
		n += s.size.Load(tx)
	}
	return n
}

// unlinkTx removes e from the stripe's recency list.
func (s *stripe[V]) unlinkTx(tx *core.Tx, e *entry[V]) {
	p, n := e.prev.Load(tx), e.next.Load(tx)
	if p == nil {
		s.head.Store(tx, n)
	} else {
		p.next.Store(tx, n)
	}
	if n == nil {
		s.tail.Store(tx, p)
	} else {
		n.prev.Store(tx, p)
	}
}

// pushFrontTx links e at the stripe's MRU end.
func (s *stripe[V]) pushFrontTx(tx *core.Tx, e *entry[V]) {
	h := s.head.Load(tx)
	e.prev.Store(tx, nil)
	e.next.Store(tx, h)
	s.linkFrontTx(tx, e, h)
}

// linkFrontTx makes e, whose links already read prev = nil and next = h,
// the MRU end in place of h.
func (s *stripe[V]) linkFrontTx(tx *core.Tx, e, h *entry[V]) {
	if h == nil {
		s.tail.Store(tx, e)
	} else {
		h.prev.Store(tx, e)
	}
	s.head.Store(tx, e)
}

// evictTx runs the second-chance sweep from the stripe's LRU end:
// touched entries are demoted — reference bit cleared, rotated to the
// MRU end — until the first untouched entry, which is the victim. The
// sweep is bounded: after size rotations every bit is clear and the
// original tail (now untouched) is victimized, so it always terminates.
// Eviction and demotion counts accrue at commit through the stripe's
// escrow counters, so concurrent evictors never conflict on a statistic.
// The victim leaves scrubbed, which is what bounds the cache's memory by
// its capacity: a live cell retains at most the one entry its superseded
// record points at, and a dead entry retains nothing.
func (s *stripe[V]) evictTx(tx *core.Tx) {
	n := s.size.Load(tx)
	for i := 0; ; i++ {
		victim := s.tail.Load(tx)
		if victim == nil {
			return
		}
		if i < n && victim.touched.Load(tx) {
			victim.touched.Store(tx, false)
			s.unlinkTx(tx, victim)
			s.pushFrontTx(tx, victim)
			s.demotions.AddTx(tx, 1)
			continue
		}
		s.unlinkTx(tx, victim)
		next := victim.hnext.Load(tx)
		b := s.bucket(victim.key)
		if head := b.Load(tx); head == victim {
			b.Store(tx, next)
		} else {
			for e := head; e != nil; {
				en := e.hnext.Load(tx)
				if en == victim {
					e.hnext.Store(tx, next)
					break
				}
				e = en
			}
		}
		// Scrub the victim: its links go to nil and their version history
		// is dropped, so a dead entry pins neither its old neighbours nor
		// the victims before it. (A plain store would keep the superseded
		// record, and the record behind a dead entry's link is never
		// overwritten again: every victim would hold the previous one.)
		victim.prev.StoreFinal(tx, nil)
		victim.next.StoreFinal(tx, nil)
		victim.hnext.StoreFinal(tx, nil)
		s.evictions.AddTx(tx, 1)
		return
	}
}

// Stats returns the committed hit/miss/eviction counters folded across
// stripes. The counts are escrow-weakly consistent with each other (the
// documented price of the relaxation): read them for monitoring, not for
// invariants between live transactions.
func (c *Cache[V]) Stats() (hits, misses, evictions int64) {
	for _, s := range c.stripes {
		hits += s.hits.Value()
		misses += s.misses.Value()
		evictions += s.evictions.Value()
	}
	return hits, misses, evictions
}

// Demotions returns the committed count of second-chance rotations
// (touched entries spared by an eviction sweep), folded across stripes.
func (c *Cache[V]) Demotions() int64 {
	var d int64
	for _, s := range c.stripes {
		d += s.demotions.Value()
	}
	return d
}

// StripeStats is one stripe's committed statistics.
type StripeStats struct {
	Capacity  int
	Hits      int64
	Misses    int64
	Evictions int64
	Demotions int64
}

// StripeStats returns stripe i's committed counters (same escrow-weak
// consistency as Stats).
func (c *Cache[V]) StripeStats(i int) StripeStats {
	s := c.stripes[i]
	return StripeStats{
		Capacity:  s.capacity,
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Evictions: s.evictions.Value(),
		Demotions: s.demotions.Value(),
	}
}

// Get returns the value bound to key, recording the use, as one
// transaction.
func (c *Cache[V]) Get(key int) (val V, ok bool, err error) {
	err = c.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		val, ok = c.GetTx(tx, key)
		return nil
	})
	return val, ok, err
}

// Put atomically binds key to val; it reports whether the key was new.
func (c *Cache[V]) Put(key int, val V) (isNew bool, err error) {
	err = c.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		isNew = c.PutTx(tx, key, val)
		return nil
	})
	return isNew, err
}

// Peek returns the value bound to key without recording a use, under
// Snapshot semantics: it neither aborts nor blocks concurrent updates.
func (c *Cache[V]) Peek(key int) (val V, ok bool, err error) {
	err = c.tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		val, ok = c.PeekTx(tx, key)
		return nil
	})
	return val, ok, err
}

// Len returns the number of cached entries, under Snapshot semantics
// (the fold reads every stripe's size cell; a snapshot read keeps it
// from aborting against concurrent inserts).
func (c *Cache[V]) Len() (int, error) {
	var n int
	err := c.tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		n = c.LenTx(tx)
		return nil
	})
	return n, err
}
