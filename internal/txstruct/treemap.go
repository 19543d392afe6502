package txstruct

import (
	"fmt"

	"repro/internal/core"
)

// tnode is one tree node. The key is immutable; the value, children and
// color are typed transactional cells — and, being typed, they carry node
// pointers and colour bits in specialized records instead of boxed
// interfaces. The cells are embedded in the node, each with its version-0
// record inside it, so a node is one allocation and a descent steps from
// node to cell to record without another pointer: an insert allocates its
// node, plus a record for each cell it writes that is still within its
// first WithMaxVersions updates (after those, a cell's records cycle).
//
// A mutation stores to a cell only when the value it writes differs from
// the one the transaction just loaded there (a silent store would lock,
// version and install the cell to change nothing, and would make the
// writer conflict with every reader of it). The cells a put or delete
// merely passed through stay in its read set; the ones it writes are the
// links and colours that really change.
type tnode[V any] struct {
	key   int
	val   core.TypedCell[V]
	left  core.TypedCell[*tnode[V]]
	right core.TypedCell[*tnode[V]]
	red   core.TypedCell[bool]
}

// TreeMapOf is a transactional ordered map: a left-leaning red-black tree
// (Sedgewick's 2-3 variant) whose mutations are plain sequential code
// inside classic transactions — the "more complex objects" direction the
// paper cites ([18]) beyond flat sets. Lookups and updates are classic;
// range reads (Len, Keys, Ascend) run under the configured read-only
// semantics, Snapshot by default, so full-tree scans neither abort nor
// block writers. The value type is generic: TreeMapOf[int] moves its
// values through word-specialized records with no boxing anywhere.
type TreeMapOf[V any] struct {
	tm      *core.TM
	sizeSem core.Semantics
	root    core.TypedCell[*tnode[V]]
}

// NewTreeMapOf builds an empty typed ordered map; sizeSem selects the
// semantics of whole-tree reads (0 defaults to Snapshot).
func NewTreeMapOf[V any](tm *core.TM, sizeSem core.Semantics) *TreeMapOf[V] {
	if sizeSem == 0 {
		sizeSem = core.Snapshot
	}
	m := &TreeMapOf[V]{tm: tm, sizeSem: sizeSem}
	core.InitTypedCell(tm, &m.root, nil)
	return m
}

func isRed[V any](tx *core.Tx, n *tnode[V]) bool {
	if n == nil {
		return false
	}
	return n.red.Load(tx)
}

// makeNode allocates a node and its cells in one piece: a fresh leaf, or
// the successor graft of remove.
func (m *TreeMapOf[V]) makeNode(key int, val V, left, right *tnode[V], red bool) *tnode[V] {
	n := &tnode[V]{key: key}
	core.InitTypedCell(m.tm, &n.val, val)
	core.InitTypedCell(m.tm, &n.left, left)
	core.InitTypedCell(m.tm, &n.right, right)
	core.InitTypedCell(m.tm, &n.red, red)
	return n
}

// relink points link at n, unless old — what the transaction just loaded
// from link — is n already.
func relink[V any](tx *core.Tx, link *core.TypedCell[*tnode[V]], old, n *tnode[V]) {
	if n != old {
		link.Store(tx, n)
	}
}

// rotateLeft/rotateRight/flipColors are the textbook LLRB primitives,
// expressed as transactional stores. A rotation always changes its two
// links; the colours it hands over change only when h and x differed.

func rotateLeft[V any](tx *core.Tx, h *tnode[V]) *tnode[V] {
	x := h.right.Load(tx)
	h.right.Store(tx, x.left.Load(tx))
	x.left.Store(tx, h)
	swapColors(tx, h, x)
	return x
}

func rotateRight[V any](tx *core.Tx, h *tnode[V]) *tnode[V] {
	x := h.left.Load(tx)
	h.left.Store(tx, x.right.Load(tx))
	x.right.Store(tx, h)
	swapColors(tx, h, x)
	return x
}

// swapColors finishes a rotation of x above h: x takes h's colour and h
// turns red.
func swapColors[V any](tx *core.Tx, h, x *tnode[V]) {
	hRed := h.red.Load(tx)
	if x.red.Load(tx) != hRed {
		x.red.Store(tx, hRed)
	}
	if !hRed {
		h.red.Store(tx, true)
	}
}

// flipColors toggles h and both its children, so every store changes its
// cell.
func flipColors[V any](tx *core.Tx, h *tnode[V]) {
	h.red.Store(tx, !isRed(tx, h))
	if l := h.left.Load(tx); l != nil {
		l.red.Store(tx, !isRed(tx, l))
	}
	if r := h.right.Load(tx); r != nil {
		r.red.Store(tx, !isRed(tx, r))
	}
}

func fixUp[V any](tx *core.Tx, h *tnode[V]) *tnode[V] {
	if isRed(tx, h.right.Load(tx)) && !isRed(tx, h.left.Load(tx)) {
		h = rotateLeft(tx, h)
	}
	if l := h.left.Load(tx); isRed(tx, l) && l != nil && isRed(tx, l.left.Load(tx)) {
		h = rotateRight(tx, h)
	}
	if isRed(tx, h.left.Load(tx)) && isRed(tx, h.right.Load(tx)) {
		flipColors(tx, h)
	}
	return h
}

// GetTx returns the value bound to key inside the caller's transaction.
func (m *TreeMapOf[V]) GetTx(tx *core.Tx, key int) (V, bool) {
	n := m.root.Load(tx)
	for n != nil {
		switch {
		case key < n.key:
			n = n.left.Load(tx)
		case key > n.key:
			n = n.right.Load(tx)
		default:
			return n.val.Load(tx), true
		}
	}
	var zero V
	return zero, false
}

// PutTx binds key to val inside the caller's transaction; it reports
// whether the key was new. Overwriting a bound key reads the search path
// and writes the value cell, nothing else; an insert links the leaf and
// writes the nodes it rotates or recolours, and the root cell only when
// the root node changes — so two puts conflict only on cells one of them
// really changes.
func (m *TreeMapOf[V]) PutTx(tx *core.Tx, key int, val V) bool {
	old := m.root.Load(tx)
	root, inserted, red := m.put(tx, old, key, val)
	if red {
		root.red.Store(tx, false)
	}
	relink(tx, &m.root, old, root)
	return inserted
}

// put binds key in the subtree under h and returns the subtree's root.
// red reports that this root is red after an insert below it: the red
// link is still travelling up, and the caller must fix up (or, at the
// top, blacken the root). A black root ends the rebalancing — nothing an
// ancestor tests has changed — so the ancestors only get their child link
// compared.
func (m *TreeMapOf[V]) put(tx *core.Tx, h *tnode[V], key int, val V) (root *tnode[V], inserted, red bool) {
	if h == nil {
		return m.makeNode(key, val, nil, nil, true), true, true
	}
	link := &h.left
	switch {
	case key > h.key:
		link = &h.right
	case key == h.key:
		h.val.Store(tx, val)
		return h, false, false
	}
	old := link.Load(tx)
	child, inserted, red := m.put(tx, old, key, val)
	relink(tx, link, old, child)
	if !red {
		return h, inserted, false
	}
	h = fixUp(tx, h)
	return h, true, isRed(tx, h)
}

// moveRedLeft/moveRedRight are the LLRB deletion helpers.

func moveRedLeft[V any](tx *core.Tx, h *tnode[V]) *tnode[V] {
	flipColors(tx, h)
	if r := h.right.Load(tx); r != nil && isRed(tx, r.left.Load(tx)) {
		h.right.Store(tx, rotateRight(tx, r))
		h = rotateLeft(tx, h)
		flipColors(tx, h)
	}
	return h
}

func moveRedRight[V any](tx *core.Tx, h *tnode[V]) *tnode[V] {
	flipColors(tx, h)
	if l := h.left.Load(tx); l != nil && isRed(tx, l.left.Load(tx)) {
		h = rotateRight(tx, h)
		flipColors(tx, h)
	}
	return h
}

func minNode[V any](tx *core.Tx, h *tnode[V]) *tnode[V] {
	for {
		l := h.left.Load(tx)
		if l == nil {
			return h
		}
		h = l
	}
}

func deleteMin[V any](tx *core.Tx, h *tnode[V]) *tnode[V] {
	l := h.left.Load(tx)
	if l == nil {
		return nil
	}
	if !isRed(tx, l) && !isRed(tx, l.left.Load(tx)) {
		h = moveRedLeft(tx, h)
		l = h.left.Load(tx)
	}
	relink(tx, &h.left, l, deleteMin(tx, l))
	return fixUp(tx, h)
}

// DeleteTx unbinds key inside the caller's transaction; it reports
// whether the key was present.
func (m *TreeMapOf[V]) DeleteTx(tx *core.Tx, key int) bool {
	if _, ok := m.GetTx(tx, key); !ok {
		return false
	}
	old := m.root.Load(tx)
	root := m.remove(tx, old, key)
	if isRed(tx, root) {
		root.red.Store(tx, false)
	}
	relink(tx, &m.root, old, root)
	return true
}

// remove unbinds key, which is bound, from the subtree under h and
// returns the subtree's root.
func (m *TreeMapOf[V]) remove(tx *core.Tx, h *tnode[V], key int) *tnode[V] {
	if key < h.key {
		l := h.left.Load(tx)
		if !isRed(tx, l) && l != nil && !isRed(tx, l.left.Load(tx)) {
			h = moveRedLeft(tx, h)
			l = h.left.Load(tx)
		}
		relink(tx, &h.left, l, m.remove(tx, l, key))
		return fixUp(tx, h)
	}
	if isRed(tx, h.left.Load(tx)) {
		h = rotateRight(tx, h)
	}
	if key == h.key && h.right.Load(tx) == nil {
		return nil
	}
	r := h.right.Load(tx)
	if !isRed(tx, r) && r != nil && !isRed(tx, r.left.Load(tx)) {
		h = moveRedRight(tx, h)
		r = h.right.Load(tx)
	}
	if key == h.key {
		// Replace with the successor's key/value; keys are immutable per
		// node, so graft a fresh node keeping the children and color
		// cells' contents.
		succ := minNode(tx, r)
		h = m.makeNode(succ.key, succ.val.Load(tx), h.left.Load(tx), deleteMin(tx, r), isRed(tx, h))
	} else {
		relink(tx, &h.right, r, m.remove(tx, r, key))
	}
	return fixUp(tx, h)
}

// LenTx counts the bindings inside the caller's transaction.
func (m *TreeMapOf[V]) LenTx(tx *core.Tx) int {
	n := 0
	m.AscendTx(tx, func(int, V) bool { n++; return true })
	return n
}

// AscendTx visits bindings in ascending key order inside the caller's
// transaction, stopping when fn returns false.
func (m *TreeMapOf[V]) AscendTx(tx *core.Tx, fn func(key int, val V) bool) {
	var walk func(h *tnode[V]) bool
	walk = func(h *tnode[V]) bool {
		if h == nil {
			return true
		}
		if !walk(h.left.Load(tx)) {
			return false
		}
		if !fn(h.key, h.val.Load(tx)) {
			return false
		}
		return walk(h.right.Load(tx))
	}
	walk(m.root.Load(tx))
}

// RangeTx visits bindings with lo <= key <= hi ascending inside the
// caller's transaction, pruning subtrees outside the range. Under
// Snapshot semantics this is a consistent range query over a live tree.
func (m *TreeMapOf[V]) RangeTx(tx *core.Tx, lo, hi int, fn func(key int, val V) bool) {
	var walk func(h *tnode[V]) bool
	walk = func(h *tnode[V]) bool {
		if h == nil {
			return true
		}
		if h.key > lo {
			if !walk(h.left.Load(tx)) {
				return false
			}
		}
		if h.key >= lo && h.key <= hi {
			if !fn(h.key, h.val.Load(tx)) {
				return false
			}
		}
		if h.key < hi {
			return walk(h.right.Load(tx))
		}
		return true
	}
	walk(m.root.Load(tx))
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
	var out []int
	err := m.tm.Atomically(m.sizeSem, func(tx *core.Tx) error {
		out = out[:0]
		m.AscendTx(tx, func(k int, _ V) bool {
			out = append(out, k)
			return true
		})
		return nil
	})
	return out, err
}

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
// (keys ascending, vals parallel) inside the caller's transaction. The new
// tree is built copy-on-write from fresh nodes — no node of the old tree
// is mutated — so concurrent snapshot readers pinned to an older version
// keep iterating the old tree untouched, and the only contended location
// of the swap itself is the root cell. This is the restore half of the
// persistent-map layer.
func (m *TreeMapOf[V]) ReplaceAllTx(tx *core.Tx, keys []int, vals []V) {
	if len(keys) != len(vals) {
		panic("txstruct: ReplaceAllTx keys/vals length mismatch")
	}
	m.root.Store(tx, nil)
	for i := range keys {
		m.PutTx(tx, keys[i], vals[i])
	}
}

// checkInvariants verifies red-black invariants inside tx: no red right
// links, no consecutive red left links, equal black height on all paths.
// It returns the black height. Used by the tests.
func (m *TreeMapOf[V]) checkInvariants(tx *core.Tx) (int, error) {
	var walk func(h *tnode[V]) (int, error)
	walk = func(h *tnode[V]) (int, error) {
		if h == nil {
			return 1, nil
		}
		l, r := h.left.Load(tx), h.right.Load(tx)
		if isRed(tx, r) {
			return 0, fmt.Errorf("key %d: red right link", h.key)
		}
		if isRed(tx, h) && isRed(tx, l) {
			return 0, fmt.Errorf("key %d: two red links in a row", h.key)
		}
		if l != nil && l.key >= h.key {
			return 0, fmt.Errorf("key %d: left child %d out of order", h.key, l.key)
		}
		if r != nil && r.key <= h.key {
			return 0, fmt.Errorf("key %d: right child %d out of order", h.key, r.key)
		}
		lb, err := walk(l)
		if err != nil {
			return 0, err
		}
		rb, err := walk(r)
		if err != nil {
			return 0, err
		}
		if lb != rb {
			return 0, fmt.Errorf("key %d: black height %d vs %d", h.key, lb, rb)
		}
		if !isRed(tx, h) {
			lb++
		}
		return lb, nil
	}
	root := m.root.Load(tx)
	if isRed(tx, root) {
		return 0, fmt.Errorf("red root")
	}
	return walk(root)
}
