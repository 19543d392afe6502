package txstruct

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// TreeFanout is B, the most entries one node holds: keys in a leaf,
// children in an inner node. It is a constant of the design, not an
// option: 32 measured ahead of 16 on the tree benchmarks (README).
const TreeFanout = 32

// block is a node's contents, immutable once a cell holds it: n entries in
// ascending key order, each a key and either the child's node cell (inner)
// or the binding's value cell (leaf). In an inner block keys[i] bounds
// child i's keys from below and keys[i+1] from above (exclusive); keys[0]
// is never read, since every key below keys[1] belongs to child 0. The
// unused one of kids and vals stays nil.
type block[V any] struct {
	n    int
	leaf bool
	keys [TreeFanout]int
	kids [TreeFanout]*core.TypedCell[*block[V]]
	vals [TreeFanout]*core.TypedCell[V]
}

// lowerBound returns the first index whose key is >= key (n if none). The
// binary search is written out: sort.Search's closure call cost a quarter
// of a get.
func (b *block[V]) lowerBound(key int) int {
	lo, hi := 0, b.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the index of the child of inner block b whose key range
// holds key: the last i with keys[i] <= key, or 0.
func (b *block[V]) childFor(key int) int {
	lo, hi := 1, b.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// copyFrom copies n entries of src, from index from on, to b at index at.
func (b *block[V]) copyFrom(at int, src *block[V], from, n int) {
	copy(b.keys[at:at+n], src.keys[from:from+n])
	if b.leaf {
		copy(b.vals[at:at+n], src.vals[from:from+n])
	} else {
		copy(b.kids[at:at+n], src.kids[from:from+n])
	}
}

// insert returns a copy of b with the entry (key, kid or val) at index i:
// one block, or, when b is already full, a left and a right half. b itself
// is left as it was.
func (b *block[V]) insert(i, key int, kid *core.TypedCell[*block[V]], val *core.TypedCell[V]) (l, r *block[V]) {
	if b.n < TreeFanout {
		l = &block[V]{n: b.n + 1, leaf: b.leaf}
		l.copyFrom(0, b, 0, i)
		l.keys[i], l.kids[i], l.vals[i] = key, kid, val
		l.copyFrom(i+1, b, i, b.n-i)
		return l, nil
	}
	const half = (TreeFanout + 1) / 2
	l = &block[V]{n: half, leaf: b.leaf}
	r = &block[V]{n: TreeFanout + 1 - half, leaf: b.leaf}
	// Entry j of the B+1 after the insert: b's entry j before i, the new
	// one at i, b's entry j-1 after it.
	for j := 0; j <= TreeFanout; j++ {
		dst, at := l, j
		if j >= half {
			dst, at = r, j-half
		}
		switch {
		case j < i:
			dst.copyFrom(at, b, j, 1)
		case j == i:
			dst.keys[at], dst.kids[at], dst.vals[at] = key, kid, val
		default:
			dst.copyFrom(at, b, j-1, 1)
		}
	}
	return l, r
}

// without returns a copy of b lacking entry i.
func (b *block[V]) without(i int) *block[V] {
	nb := &block[V]{n: b.n - 1, leaf: b.leaf}
	nb.copyFrom(0, b, 0, i)
	nb.copyFrom(i, b, i+1, b.n-1-i)
	return nb
}

// TreeMapOf is a transactional ordered map: a B+-tree whose mutations are
// plain sequential code inside classic transactions — the "more complex
// objects" direction the paper cites ([18]) beyond flat sets. Lookups and
// updates are classic; range reads (Len, Keys, Ascend) run under the
// configured read-only semantics, Snapshot by default, so full-tree scans
// neither abort nor block writers.
//
// Each node is one cell holding an immutable block (see block), so a
// lookup loads one cell per level and then the binding's own value cell,
// and a scan loads one cell per node it crosses plus one per binding. The
// value cells are what make overwrites cheap: an overwrite stores the one
// value cell and nothing else, allocates nothing, and never conflicts with
// an overwrite of another key. An insert or delete copies the leaf's block
// into the leaf's cell (reusing every value cell pointer), so those
// conflict per leaf. A full node splits: the left half stays in the node's
// cell, the right half goes to a new cell, and the parent is copied with
// the new child; a full root moves into a new cell, so the root cell keeps
// its identity. A delete unlinks a node it empties (the root excepted) and
// collapses an inner root left with one child. Nothing merges underfull
// nodes: a node splits only after at least B/2 entries were added to it
// since it was made, so the height stays within 1 + log_{B/2}(inserts the
// map has seen), and a map that shrinks keeps the height it grew to until
// its root collapses.
//
// A block a committed cell can reach is never written: every insert or
// delete copies, even one that copies a block its own transaction made.
// The value type is generic: TreeMapOf[int] moves its values through
// word-specialized records with no boxing anywhere.
type TreeMapOf[V any] struct {
	tm      *core.TM
	sizeSem core.Semantics
	root    core.TypedCell[*block[V]]
	splits  atomic.Int64 // node splits by committed transactions
}

// NewTreeMapOf builds an empty typed ordered map; sizeSem selects the
// semantics of whole-tree reads (0 defaults to Snapshot).
func NewTreeMapOf[V any](tm *core.TM, sizeSem core.Semantics) *TreeMapOf[V] {
	if sizeSem == 0 {
		sizeSem = core.Snapshot
	}
	m := &TreeMapOf[V]{tm: tm, sizeSem: sizeSem}
	core.InitTypedCell(tm, &m.root, &block[V]{leaf: true})
	return m
}

// replace stores nb into the node cell c, from which this transaction's
// descent loaded old. A cell holding an inner block is loaded again first
// and the attempt restarts if it moved: an Elastic transaction validates
// only the reads in its window, which always holds the leaf but not
// necessarily the nodes above it, so a copy of an inner node could rest
// on a stale read. The reload runs after the transaction's first store,
// as a classic read that commit validates.
func replace[V any](tx *core.Tx, c *core.TypedCell[*block[V]], old, nb *block[V]) {
	if !old.leaf && c.Load(tx) != old {
		tx.Restart()
	}
	c.Store(tx, nb)
}

// GetTx returns the value bound to key inside the caller's transaction.
func (m *TreeMapOf[V]) GetTx(tx *core.Tx, key int) (V, bool) {
	b := m.root.Load(tx)
	for !b.leaf {
		b = b.kids[b.childFor(key)].Load(tx)
	}
	if i := b.lowerBound(key); i < b.n && b.keys[i] == key {
		return b.vals[i].Load(tx), true
	}
	var zero V
	return zero, false
}

// PutTx binds key to val inside the caller's transaction; it reports
// whether the key was new. Overwriting a bound key reads the search path
// and stores the key's value cell, nothing else; an insert stores the
// leaf's cell, and a split the cells of the nodes it copies.
func (m *TreeMapOf[V]) PutTx(tx *core.Tx, key int, val V) bool {
	rb := m.root.Load(tx)
	nb, right, inserted := m.put(tx, rb, key, val)
	if right != nil {
		// The root split: both halves move to new cells under a new root.
		tx.AddOnCommit(&m.splits, 1)
		top := &block[V]{n: 2}
		top.keys[1] = right.keys[0]
		top.kids[0] = core.NewTypedCell(m.tm, nb)
		top.kids[1] = core.NewTypedCell(m.tm, right)
		nb = top
	}
	if nb != rb {
		replace(tx, &m.root, rb, nb)
	}
	return inserted
}

// put binds key to val under b, the block a node at this level holds. It
// returns the block the node should hold (b itself when the node is
// unchanged), the right half when the node split, and whether the key was
// new.
func (m *TreeMapOf[V]) put(tx *core.Tx, b *block[V], key int, val V) (nb, right *block[V], inserted bool) {
	if b.leaf {
		i := b.lowerBound(key)
		if i < b.n && b.keys[i] == key {
			b.vals[i].Store(tx, val)
			return b, nil, false
		}
		nb, right = b.insert(i, key, nil, core.NewTypedCell(m.tm, val))
		return nb, right, true
	}
	i := b.childFor(key)
	c := b.kids[i]
	cb := c.Load(tx)
	ncb, cr, inserted := m.put(tx, cb, key, val)
	if ncb != cb {
		replace(tx, c, cb, ncb)
	}
	if cr == nil {
		return b, nil, inserted
	}
	tx.AddOnCommit(&m.splits, 1)
	nb, right = b.insert(i+1, cr.keys[0], core.NewTypedCell(m.tm, cr), nil)
	return nb, right, inserted
}

// DeleteTx unbinds key inside the caller's transaction; it reports
// whether the key was present.
func (m *TreeMapOf[V]) DeleteTx(tx *core.Tx, key int) bool {
	rb := m.root.Load(tx)
	nb, found := m.del(tx, rb, key)
	if !found {
		return false
	}
	for !nb.leaf && nb.n == 1 {
		// An inner root with one child takes the child's block.
		c := nb.kids[0]
		nb = c.Load(tx)
		c.StoreFinal(tx, nil)
	}
	replace(tx, &m.root, rb, nb)
	return true
}

// del unbinds key under b, the block a node at this level holds. It
// returns the block the node should hold — b itself when the node is
// unchanged, an empty one when the caller must unlink the node — and
// whether the key was bound.
//
// An unlinked node's cell is scrubbed with StoreFinal: no transaction
// reaches it again, and the write is what an Elastic transaction still
// holding the node in its window conflicts on.
func (m *TreeMapOf[V]) del(tx *core.Tx, b *block[V], key int) (*block[V], bool) {
	if b.leaf {
		i := b.lowerBound(key)
		if i == b.n || b.keys[i] != key {
			return b, false
		}
		return b.without(i), true
	}
	i := b.childFor(key)
	c := b.kids[i]
	cb := c.Load(tx)
	ncb, found := m.del(tx, cb, key)
	switch {
	case !found:
		return b, false
	case ncb.n > 0:
		replace(tx, c, cb, ncb)
		return b, true
	default:
		c.StoreFinal(tx, nil)
		return b.without(i), true
	}
}

// LenTx counts the bindings inside the caller's transaction. It reads the
// node cells only, so it never conflicts with an overwrite.
func (m *TreeMapOf[V]) LenTx(tx *core.Tx) int {
	return count(tx, m.root.Load(tx))
}

func count[V any](tx *core.Tx, b *block[V]) int {
	if b.leaf {
		return b.n
	}
	n := 0
	for i := 0; i < b.n; i++ {
		n += count(tx, b.kids[i].Load(tx))
	}
	return n
}

// AscendTx visits bindings in ascending key order inside the caller's
// transaction, stopping when fn returns false.
func (m *TreeMapOf[V]) AscendTx(tx *core.Tx, fn func(key int, val V) bool) {
	m.RangeTx(tx, math.MinInt, math.MaxInt, fn)
}

// RangeTx visits bindings with lo <= key <= hi ascending inside the
// caller's transaction. It descends from lo and walks the children in
// order, loading a node only while its keys can still be <= hi. Under
// Snapshot semantics this is a consistent range query over a live tree.
// The leaves have no sibling links: under copy-on-write a link would make
// every leaf split write its predecessor too.
func (m *TreeMapOf[V]) RangeTx(tx *core.Tx, lo, hi int, fn func(key int, val V) bool) {
	if lo <= hi {
		walkRange(tx, m.root.Load(tx), lo, hi, fn)
	}
}

// walkRange visits the bindings in [lo, hi] under b; it reports false once
// the walk is over (fn said stop, or a key passed hi).
func walkRange[V any](tx *core.Tx, b *block[V], lo, hi int, fn func(int, V) bool) bool {
	if b.leaf {
		for i := b.lowerBound(lo); i < b.n; i++ {
			if b.keys[i] > hi || !fn(b.keys[i], b.vals[i].Load(tx)) {
				return false
			}
		}
		return true
	}
	for i := b.childFor(lo); i < b.n; i++ {
		if !walkRange(tx, b.kids[i].Load(tx), lo, hi, fn) {
			return false
		}
		if i+1 < b.n && b.keys[i+1] > hi {
			return false
		}
	}
	return true
}

// Range returns the keys in [lo, hi] as one atomic snapshot.
func (m *TreeMapOf[V]) Range(lo, hi int) ([]int, error) {
	var out []int
	err := m.tm.Atomically(m.sizeSem, func(tx *core.Tx) error {
		out = out[:0]
		m.RangeTx(tx, lo, hi, func(k int, _ V) bool {
			out = append(out, k)
			return true
		})
		return nil
	})
	return out, err
}

// Get returns the value bound to key.
func (m *TreeMapOf[V]) Get(key int) (val V, found bool, err error) {
	err = m.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		val, found = m.GetTx(tx, key)
		return nil
	})
	return val, found, err
}

// Put atomically binds key to val; it reports whether the key was new.
func (m *TreeMapOf[V]) Put(key int, val V) (inserted bool, err error) {
	err = m.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		inserted = m.PutTx(tx, key, val)
		return nil
	})
	return inserted, err
}

// Delete atomically unbinds key; it reports whether the key was present.
func (m *TreeMapOf[V]) Delete(key int) (removed bool, err error) {
	err = m.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		removed = m.DeleteTx(tx, key)
		return nil
	})
	return removed, err
}

// Len returns the number of bindings under the read-only semantics.
func (m *TreeMapOf[V]) Len() (int, error) {
	var n int
	err := m.tm.Atomically(m.sizeSem, func(tx *core.Tx) error {
		n = m.LenTx(tx)
		return nil
	})
	return n, err
}

// Keys returns all keys ascending as one atomic snapshot.
func (m *TreeMapOf[V]) Keys() ([]int, error) {
	return m.Range(math.MinInt, math.MaxInt)
}

// Height returns the number of node levels, the leaves included, under the
// read-only semantics.
func (m *TreeMapOf[V]) Height() (int, error) {
	h := 0
	err := m.tm.Atomically(m.sizeSem, func(tx *core.Tx) error {
		h = 1
		for b := m.root.Load(tx); !b.leaf; b = b.kids[0].Load(tx) {
			h++
		}
		return nil
	})
	return h, err
}

// Splits returns how many node splits committed transactions have made.
func (m *TreeMapOf[V]) Splits() int64 { return m.splits.Load() }

// SnapshotRange visits bindings with lo <= key <= hi in ascending order at
// the pin's version: one consistent cut of the map, regardless of how many
// transactions have committed since the pin was taken — and with zero
// write-path interference, since snapshot reads neither abort updaters nor
// are aborted by them. Successive calls on one pin (or on the other
// Snapshot* iterators) observe the SAME state, which makes chunked
// iteration over a live map consistent as a whole; fn stopping early and a
// later call resuming past the last key is the chunked-backup idiom of
// internal/persistmap.
//
// Each call is one snapshot transaction, and like every transactional
// closure it may RUN MORE THAN ONCE (a snapshot read can abort on lock
// contention and retry): fn must tolerate re-invocation from the first
// key. Accumulators should be idempotent (e.g. a map keyed by key) or be
// reset per attempt by using p.Atomically with RangeTx directly, the way
// persistmap.Backup does.
func (m *TreeMapOf[V]) SnapshotRange(p *core.SnapshotPin, lo, hi int, fn func(key int, val V) bool) error {
	return p.Atomically(func(tx *core.Tx) error {
		m.RangeTx(tx, lo, hi, fn)
		return nil
	})
}

// SnapshotAscend visits every binding ascending at the pin's version; see
// SnapshotRange.
func (m *TreeMapOf[V]) SnapshotAscend(p *core.SnapshotPin, fn func(key int, val V) bool) error {
	return p.Atomically(func(tx *core.Tx) error {
		m.AscendTx(tx, fn)
		return nil
	})
}

// ReplaceAllTx replaces the map's entire contents with the given bindings
// (keys strictly ascending, vals parallel) inside the caller's
// transaction. The new tree is built bottom-up from fresh cells with full
// nodes — no node of the old tree is touched — so concurrent snapshot
// readers pinned to an older version keep iterating the old tree, and the
// swap itself stores only the root cell. That is also why an Elastic
// writer racing the swap can land in the discarded tree: its window need
// not hold the root. Writers that may race a ReplaceAllTx run Classic,
// as Put does. This is the restore half of the persistent-map layer.
func (m *TreeMapOf[V]) ReplaceAllTx(tx *core.Tx, keys []int, vals []V) {
	if len(keys) != len(vals) {
		panic("txstruct: ReplaceAllTx keys/vals length mismatch")
	}
	// level holds one tree level's blocks, mins their smallest keys.
	var level []*block[V]
	var mins []int
	for i, k := range keys {
		if i > 0 && k <= keys[i-1] {
			panic("txstruct: ReplaceAllTx keys not strictly ascending")
		}
		if i%TreeFanout == 0 {
			level = append(level, &block[V]{leaf: true})
			mins = append(mins, k)
		}
		b := level[len(level)-1]
		b.keys[b.n], b.vals[b.n] = k, core.NewTypedCell(m.tm, vals[i])
		b.n++
	}
	for len(level) > 1 {
		var up []*block[V]
		var upMins []int
		for i, b := range level {
			if i%TreeFanout == 0 {
				up = append(up, &block[V]{})
				upMins = append(upMins, mins[i])
			}
			p := up[len(up)-1]
			p.keys[p.n], p.kids[p.n] = mins[i], core.NewTypedCell(m.tm, b)
			p.n++
		}
		level, mins = up, upMins
	}
	if len(level) == 0 {
		level = append(level, &block[V]{leaf: true})
	}
	m.root.Store(tx, level[0])
}

// checkInvariants verifies the B+-tree shape inside tx: keys strictly
// ascending within each block, every key inside the bounds its parent's
// separators set, every leaf at the same depth, no empty node but a leaf
// root, no inner root with one child, and n <= B. It returns the height.
// Used by the tests.
func (m *TreeMapOf[V]) checkInvariants(tx *core.Tx) (int, error) {
	root := m.root.Load(tx)
	if root == nil {
		return 0, fmt.Errorf("nil root block")
	}
	if !root.leaf && root.n < 2 {
		return 0, fmt.Errorf("inner root with %d child(ren)", root.n)
	}
	leafDepth := 0
	// walk checks b at depth d, whose keys lie in [lo, hi) — or [lo, +inf)
	// when open.
	var walk func(b *block[V], d, lo, hi int, open bool) error
	walk = func(b *block[V], d, lo, hi int, open bool) error {
		if b == nil {
			return fmt.Errorf("depth %d: nil block", d)
		}
		if b.n < 0 || b.n > TreeFanout {
			return fmt.Errorf("depth %d: %d entries, want 1..%d", d, b.n, TreeFanout)
		}
		if b.n == 0 && b != root {
			return fmt.Errorf("depth %d: empty non-root node", d)
		}
		first := 0
		if !b.leaf {
			first = 1 // keys[0] of an inner block is never read
		}
		for i := first; i < b.n; i++ {
			k := b.keys[i]
			if i > first && k <= b.keys[i-1] {
				return fmt.Errorf("depth %d: key %d after %d", d, k, b.keys[i-1])
			}
			if k < lo || (!open && k >= hi) {
				return fmt.Errorf("depth %d: key %d outside its separators [%d, %d) (open %v)", d, k, lo, hi, open)
			}
		}
		if b.leaf {
			for i := 0; i < b.n; i++ {
				if b.vals[i] == nil || b.kids[i] != nil {
					return fmt.Errorf("depth %d: leaf entry %d holds a child or no value cell", d, i)
				}
			}
			if leafDepth == 0 {
				leafDepth = d
			}
			if d != leafDepth {
				return fmt.Errorf("leaf at depth %d, another at %d", d, leafDepth)
			}
			return nil
		}
		for i := 0; i < b.n; i++ {
			if b.kids[i] == nil || b.vals[i] != nil {
				return fmt.Errorf("depth %d: inner entry %d holds a value or no child", d, i)
			}
			clo, chi, copen := lo, hi, open
			if i > 0 {
				clo = b.keys[i]
			}
			if i+1 < b.n {
				chi, copen = b.keys[i+1], false
			}
			if err := walk(b.kids[i].Load(tx), d+1, clo, chi, copen); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 1, math.MinInt, 0, true); err != nil {
		return 0, err
	}
	return leafDepth, nil
}
