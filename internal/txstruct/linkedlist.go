// Package txstruct provides transactional data structures built on the
// polymorphic runtime: the paper's sorted linked-list integer set
// (Algorithms 1, 4 and 5), a hash set, a FIFO queue, and a directory map
// (the rename composition of section 2.2). Every structure preserves its
// sequential code shape — operations are sequential traversals wrapped in
// a transaction of the configured semantics.
package txstruct

import (
	"repro/internal/core"
	"repro/internal/intset"
)

// node is one list node. The value is immutable after creation (exactly
// Algorithm 2's transactional structure: only the next pointer is shared
// mutable state); next is a typed cell holding the successor *node,
// nil-terminated, embedded in the node. The typed cell keeps the parse
// loops free of interface boxing and type assertions, and its commit path
// recycles version records, so add/remove commits allocate the new node —
// one object, cell included — plus the records a cell takes on its first
// few updates, before its records cycle.
type node struct {
	val  int
	next core.TypedCell[*node]
}

// ListConfig selects the semantics of each operation class, which is the
// paper's experiment matrix: classic everything (Figure 5), elastic parses
// with classic size (Figure 7), elastic parses with snapshot size
// (Figure 9).
type ListConfig struct {
	// Parse is the semantics of contains/add/remove (default Classic).
	Parse core.Semantics
	// Size is the semantics of size/elements (default Classic).
	Size core.Semantics
}

func (c *ListConfig) fill() {
	if c.Parse == 0 {
		c.Parse = core.Classic
	}
	if c.Size == 0 {
		c.Size = core.Classic
	}
}

// List is a sorted singly-linked integer set over transactional cells.
//
// Concurrency notes (matching the elastic-transactions list of the
// DISC 2009 paper): remove republishes the removed node's next pointer,
// so any elastic parse whose window covers the node observes the removal;
// with the default window of two recent reads every add/remove write
// target is covered by the window, making all operations linearizable
// under any mix of the three semantics. The window=1 ablation breaks
// remove (demonstrated in the tests), which is why two is the default.
type List struct {
	tm   *core.TM
	cfg  ListConfig
	head core.TypedCell[*node]
}

var (
	_ intset.Set         = (*List)(nil)
	_ intset.Snapshotter = (*List)(nil)
)

// NewList builds an empty list bound to tm.
func NewList(tm *core.TM, cfg ListConfig) *List {
	cfg.fill()
	l := &List{tm: tm, cfg: cfg}
	core.InitTypedCell(tm, &l.head, nil)
	return l
}

// ContainsTx is the composable form of Contains: it runs inside the
// caller's transaction, whose semantics governs (section 4.2: Bob labels
// the composite).
func (l *List) ContainsTx(tx *core.Tx, v int) bool {
	curr := l.head.Load(tx)
	for curr != nil && curr.val < v {
		curr = curr.next.Load(tx)
	}
	return curr != nil && curr.val == v
}

// AddTx inserts v inside the caller's transaction; it reports false when v
// was already present. The traversal is Algorithm 4's: the last two reads
// (the insertion point's incoming pointers) are exactly the elastic
// window, so the final write target is always covered.
func (l *List) AddTx(tx *core.Tx, v int) bool {
	var prev *node
	curr := l.head.Load(tx)
	for curr != nil && curr.val < v {
		prev = curr
		curr = curr.next.Load(tx)
	}
	if curr != nil && curr.val == v {
		return false
	}
	n := &node{val: v}
	core.InitTypedCell(l.tm, &n.next, curr)
	if prev == nil {
		l.head.Store(tx, n)
	} else {
		prev.next.Store(tx, n)
	}
	return true
}

// RemoveTx deletes v inside the caller's transaction; it reports false
// when v was absent. Besides unlinking, it republishes the removed node's
// next pointer (a version bump carrying the same successor): parses paused
// on the removed node detect the removal, and writers about to modify the
// unlinked node conflict instead of losing their update.
func (l *List) RemoveTx(tx *core.Tx, v int) bool {
	var prev *node
	curr := l.head.Load(tx)
	for curr != nil && curr.val < v {
		prev = curr
		curr = curr.next.Load(tx)
	}
	if curr == nil || curr.val != v {
		return false
	}
	succ := curr.next.Load(tx)
	if prev == nil {
		l.head.Store(tx, succ)
	} else {
		prev.next.Store(tx, succ)
	}
	curr.next.Store(tx, succ)
	return true
}

// SizeTx counts the elements inside the caller's transaction.
func (l *List) SizeTx(tx *core.Tx) int {
	n := 0
	for curr := l.head.Load(tx); curr != nil; curr = curr.next.Load(tx) {
		n++
	}
	return n
}

// ElementsTx returns the members in ascending order inside the caller's
// transaction.
func (l *List) ElementsTx(tx *core.Tx) []int {
	var out []int
	for curr := l.head.Load(tx); curr != nil; curr = curr.next.Load(tx) {
		out = append(out, curr.val)
	}
	return out
}

// Contains implements intset.Set with the configured parse semantics
// (Algorithm 1 when classic, the elastic variant when elastic).
func (l *List) Contains(v int) (bool, error) {
	var found bool
	err := l.tm.Atomically(l.cfg.Parse, func(tx *core.Tx) error {
		found = l.ContainsTx(tx, v)
		return nil
	})
	return found, err
}

// Add implements intset.Set (Algorithm 4 under elastic semantics).
func (l *List) Add(v int) (bool, error) {
	var added bool
	err := l.tm.Atomically(l.cfg.Parse, func(tx *core.Tx) error {
		added = l.AddTx(tx, v)
		return nil
	})
	return added, err
}

// Remove implements intset.Set.
func (l *List) Remove(v int) (bool, error) {
	var removed bool
	err := l.tm.Atomically(l.cfg.Parse, func(tx *core.Tx) error {
		removed = l.RemoveTx(tx, v)
		return nil
	})
	return removed, err
}

// Size implements intset.Set with the configured size semantics
// (Algorithm 5 when snapshot).
func (l *List) Size() (int, error) {
	var n int
	err := l.tm.Atomically(l.cfg.Size, func(tx *core.Tx) error {
		n = l.SizeTx(tx)
		return nil
	})
	return n, err
}

// Elements implements intset.Snapshotter with the size semantics.
func (l *List) Elements() ([]int, error) {
	var out []int
	err := l.tm.Atomically(l.cfg.Size, func(tx *core.Tx) error {
		out = l.ElementsTx(tx)
		return nil
	})
	return out, err
}

// SnapshotRange visits members with lo <= v <= hi in ascending order at
// the pin's version: a consistent cut of the set frozen at pin time, with
// zero write-path interference (snapshot reads neither abort updaters nor
// are aborted by them). Successive calls on one pin observe the same
// state — the chunked consistent-iteration idiom. Each call is one
// snapshot transaction and may retry: fn must tolerate re-invocation from
// the first member (see TreeMapOf.SnapshotRange).
func (l *List) SnapshotRange(p *core.SnapshotPin, lo, hi int, fn func(v int) bool) error {
	return p.Atomically(func(tx *core.Tx) error {
		for curr := l.head.Load(tx); curr != nil && curr.val <= hi; curr = curr.next.Load(tx) {
			if curr.val >= lo && !fn(curr.val) {
				return nil
			}
		}
		return nil
	})
}

// AddIfAbsent atomically inserts v only when w is absent, composing
// ContainsTx and AddTx under one classic transaction — the composition the
// paper uses to argue elastic operations stay composable while early
// release does not (section 4.1/4.2).
func (l *List) AddIfAbsent(v, w int) (bool, error) {
	var added bool
	err := l.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		added = false
		if !l.ContainsTx(tx, w) {
			added = l.AddTx(tx, v)
		}
		return nil
	})
	return added, err
}
