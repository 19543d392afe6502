package txstruct

import (
	"math"

	"repro/internal/core"
)

// This file is the structure-level privatization skin: TreeMapOf.Detach
// freezes the whole tree behind core.TM.Privatize's quiescence barrier
// and returns a view whose lookups and traversals are plain pointer
// walks — no transactions, no version sampling, zero allocations per
// operation — until Republish re-attaches it.
//
// The fence contract is the caller's, exactly as for TM.Privatize: stop
// new writers to THIS map before calling Detach (other maps and cells of
// the TM may keep committing freely — the barrier drains in-flight
// transactions TM-wide, but only this map must stay write-free while
// detached). In race builds Detach walks the frozen tree's blocks once
// and marks every node cell and every value cell, so a writer that slips
// the fence panics loudly at its first touch — an overwrite, which stores
// a value cell only, included.

// DetachedTreeMapOf is a frozen, detached view of a TreeMapOf at a fixed
// epoch: safe for concurrent use by any number of readers with no
// synchronization among them. Republish must be called exactly once,
// after all readers are done.
type DetachedTreeMapOf[V any] struct {
	m *TreeMapOf[V]
	p *core.Private
}

// Detach privatizes the map: it drains every in-flight transaction of
// the map's TM behind the quiescence barrier, draws the detach epoch,
// and returns the frozen view. The caller must have fenced new writers
// away from this map first.
func (m *TreeMapOf[V]) Detach() (*DetachedTreeMapOf[V], error) {
	p, err := m.tm.Privatize()
	if err != nil {
		return nil, err
	}
	d := &DetachedTreeMapOf[V]{m: m, p: p}
	if core.PrivatizeGuardsEnabled {
		// Guard walk (race builds only): arm the loud-error rails on
		// every node cell of the frozen tree, root included, and on
		// every value cell.
		var mark func(c *core.TypedCell[*block[V]])
		mark = func(c *core.TypedCell[*block[V]]) {
			c.MarkDetached(p)
			b := c.LoadDetached(p)
			for i := 0; i < b.n; i++ {
				if b.leaf {
					b.vals[i].MarkDetached(p)
				} else {
					mark(b.kids[i])
				}
			}
		}
		mark(&m.root)
	}
	return d, nil
}

// Epoch returns the detach epoch the view is frozen at.
func (d *DetachedTreeMapOf[V]) Epoch() uint64 { return d.p.Epoch() }

// Republish re-attaches the map: the view becomes invalid and the caller
// may re-admit writers (clear the fence AFTER Republish returns).
// Subsequent commits draw versions past the epoch, so the republished
// map's history is well-ordered after everything the view observed.
// Idempotent.
func (d *DetachedTreeMapOf[V]) Republish() { d.p.Republish() }

// Get returns the value bound to key in the frozen view: a plain tree
// descent, no transaction.
func (d *DetachedTreeMapOf[V]) Get(key int) (V, bool) {
	b := d.m.root.LoadDetached(d.p)
	for !b.leaf {
		b = b.kids[b.childFor(key)].LoadDetached(d.p)
	}
	if i := b.lowerBound(key); i < b.n && b.keys[i] == key {
		return b.vals[i].LoadDetached(d.p), true
	}
	var zero V
	return zero, false
}

// Len counts the bindings in the frozen view.
func (d *DetachedTreeMapOf[V]) Len() int {
	n := 0
	d.Ascend(func(int, V) bool { n++; return true })
	return n
}

// Ascend visits bindings in ascending key order, stopping when fn
// returns false.
func (d *DetachedTreeMapOf[V]) Ascend(fn func(key int, val V) bool) {
	d.Range(math.MinInt, math.MaxInt, fn)
}

// Range visits bindings with lo <= key <= hi ascending, stopping when fn
// returns false. It is TreeMapOf.RangeTx's walk over plain loads.
func (d *DetachedTreeMapOf[V]) Range(lo, hi int, fn func(key int, val V) bool) {
	if lo <= hi {
		d.walkRange(d.m.root.LoadDetached(d.p), lo, hi, fn)
	}
}

func (d *DetachedTreeMapOf[V]) walkRange(b *block[V], lo, hi int, fn func(int, V) bool) bool {
	if b.leaf {
		for i := b.lowerBound(lo); i < b.n; i++ {
			if b.keys[i] > hi || !fn(b.keys[i], b.vals[i].LoadDetached(d.p)) {
				return false
			}
		}
		return true
	}
	for i := b.childFor(lo); i < b.n; i++ {
		if !d.walkRange(b.kids[i].LoadDetached(d.p), lo, hi, fn) {
			return false
		}
		if i+1 < b.n && b.keys[i+1] > hi {
			return false
		}
	}
	return true
}
