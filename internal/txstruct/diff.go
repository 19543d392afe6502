package txstruct

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/core"
)

// This file implements the pin-to-pin incremental diff over TreeMapOf: a
// merged walk of the SAME live tree at two pinned versions, emitting the
// bindings that were added, changed or deleted between them. It is the
// read half of incremental backups (internal/persistmap serializes the
// emitted changes to disk); the cost is proportional to the tree size per
// walk but the OUTPUT is proportional to the churn, which is what makes a
// full-plus-diffs backup chain cheap to ship and store.

// DiffKind classifies one binding change between two pinned versions.
type DiffKind uint8

const (
	// DiffAdded: the key is bound at the newer pin but not the older.
	DiffAdded DiffKind = iota + 1
	// DiffChanged: the key is bound at both pins and was rewritten in
	// between. Change detection is MVCC-first: when the binding's value
	// cell is the same at both pins, the key changed iff the record
	// visible at the newer pin was committed after the older pin (an
	// in-place overwrite, reported even when the new value happens to
	// equal the old: the diff captures writes). When the value cell was
	// replaced — the key was deleted and inserted again — the payloads
	// are compared and DiffChanged is emitted only if they differ. Node
	// splits and unlinks move value cells between blocks but never
	// replace one, so structural churn alone never reports a change.
	DiffChanged
	// DiffDeleted: the key is bound at the older pin but not the newer.
	DiffDeleted
)

// String names the kind for diagnostics and file tooling.
func (k DiffKind) String() string {
	switch k {
	case DiffAdded:
		return "added"
	case DiffChanged:
		return "changed"
	case DiffDeleted:
		return "deleted"
	default:
		return fmt.Sprintf("DiffKind(%d)", uint8(k))
	}
}

// diffChunk is how many bindings one diff transaction collects per pinned
// side; tests shrink it (via snapshotDiff) to force chunk-boundary merges.
const diffChunk = 256

// diffEnt is one binding collected at a pin during the merged walk: the
// value cell and its record's commit version are what classify a
// both-sides key as changed or unchanged without comparing values.
type diffEnt[V any] struct {
	key  int
	val  V
	cell *core.TypedCell[V]
	ver  uint64
}

// SnapshotDiff walks the map at two pinned versions and emits every
// binding difference in ascending key order: keys bound only at pNew as
// DiffAdded (old is V's zero), keys bound only at pOld as DiffDeleted (new
// is V's zero), and keys bound at both whose value was rewritten in
// between as DiffChanged. Unchanged keys cost a visit but are not emitted,
// so the emission is proportional to the churn between the pins.
//
// Both pins must be live pins of the map's TM with pOld.Version() <=
// pNew.Version(). Like SnapshotRange, the walk is chunked — many short
// pinned snapshot transactions per side, never one long one — and both
// sides are frozen cuts, so the result is exact no matter how many commits
// land during the walk. fn runs OUTSIDE any transaction, exactly once per
// difference, and may stop the walk early by returning false.
//
// Change detection is MVCC-first: when the key's value cell is the same
// at both pins, the binding is DiffChanged iff the record visible at pNew
// was committed after pOld.Version() (an in-place overwrite — reported
// even for an equal value, since the diff captures writes). When the
// value cell differs (the key was deleted and inserted again in between),
// the old and new payloads are compared with reflect.DeepEqual and the
// binding is emitted only if they differ. Leaf splits and unlinks copy
// blocks but carry the value cells over, so structural churn produces no
// DiffChanged events and the diff stays proportional to real churn.
func (m *TreeMapOf[V]) SnapshotDiff(pOld, pNew *core.SnapshotPin, fn func(key int, old, new V, kind DiffKind) bool) error {
	return m.snapshotDiff(pOld, pNew, diffChunk, fn)
}

// snapshotDiff is SnapshotDiff with an explicit chunk size (tests force
// tiny chunks so the merge crosses chunk boundaries on small maps).
func (m *TreeMapOf[V]) snapshotDiff(pOld, pNew *core.SnapshotPin, chunk int, fn func(key int, old, new V, kind DiffKind) bool) error {
	if chunk < 1 {
		chunk = 1
	}
	oldVer, newVer := pOld.Version(), pNew.Version()
	if oldVer > newVer {
		return fmt.Errorf("txstruct: SnapshotDiff pins out of order: old version %d > new version %d", oldVer, newVer)
	}
	var (
		zero     V
		oldBuf   []diffEnt[V]
		newBuf   []diffEnt[V]
		lo       = math.MinInt
		finished bool
	)
	for !finished {
		oldEnts, oldMore, err := m.collectDiffChunk(pOld, lo, chunk, oldBuf)
		if err != nil {
			return err
		}
		newEnts, newMore, err := m.collectDiffChunk(pNew, lo, chunk, newBuf)
		if err != nil {
			return err
		}
		// The merge is exact only over the key range BOTH chunks cover in
		// full: a side that stopped early (more == true) enumerated every
		// key up to its last collected key and nothing beyond.
		hi := math.MaxInt
		if oldMore {
			hi = oldEnts[len(oldEnts)-1].key
		}
		if newMore && newEnts[len(newEnts)-1].key < hi {
			hi = newEnts[len(newEnts)-1].key
		}
		i, j := 0, 0
		for i < len(oldEnts) || j < len(newEnts) {
			switch {
			case i < len(oldEnts) && oldEnts[i].key > hi:
				i = len(oldEnts)
				continue
			case j < len(newEnts) && newEnts[j].key > hi:
				j = len(newEnts)
				continue
			case i == len(oldEnts):
				if !fn(newEnts[j].key, zero, newEnts[j].val, DiffAdded) {
					return nil
				}
				j++
			case j == len(newEnts):
				if !fn(oldEnts[i].key, oldEnts[i].val, zero, DiffDeleted) {
					return nil
				}
				i++
			case oldEnts[i].key < newEnts[j].key:
				if !fn(oldEnts[i].key, oldEnts[i].val, zero, DiffDeleted) {
					return nil
				}
				i++
			case newEnts[j].key < oldEnts[i].key:
				if !fn(newEnts[j].key, zero, newEnts[j].val, DiffAdded) {
					return nil
				}
				j++
			default:
				// Bound at both pins. The same value cell was rewritten
				// iff the record visible at pNew postdates pOld; a new
				// value cell (a fresh one starts at version 0, so its
				// version says nothing) is a change iff the payload is.
				o, n := &oldEnts[i], &newEnts[j]
				changed := n.ver > oldVer
				if o.cell != n.cell {
					changed = !reflect.DeepEqual(o.val, n.val)
				}
				if changed && !fn(n.key, o.val, n.val, DiffChanged) {
					return nil
				}
				i++
				j++
			}
		}
		oldBuf, newBuf = oldEnts, newEnts
		if hi == math.MaxInt {
			finished = true
		} else {
			lo = hi + 1
		}
	}
	return nil
}

// collectDiffChunk collects up to limit bindings with key >= lo at the
// pin's version, each with its value cell and that cell's record commit
// version. more reports that the walk stopped at the limit (every key up
// to the last collected one was enumerated; keys beyond it were not). The
// closure may retry, so the chunk accumulates into a buffer reset at the
// top of every attempt — the persistmap.Backup idiom.
func (m *TreeMapOf[V]) collectDiffChunk(p *core.SnapshotPin, lo, limit int, buf []diffEnt[V]) (ents []diffEnt[V], more bool, err error) {
	err = p.Atomically(func(tx *core.Tx) error {
		buf = buf[:0]
		more = false
		var walk func(b *block[V]) bool
		walk = func(b *block[V]) bool {
			if !b.leaf {
				for i := b.childFor(lo); i < b.n; i++ {
					if !walk(b.kids[i].Load(tx)) {
						return false
					}
				}
				return true
			}
			for i := b.lowerBound(lo); i < b.n; i++ {
				if len(buf) == limit {
					more = true
					return false
				}
				v, ver := b.vals[i].LoadVersioned(tx)
				buf = append(buf, diffEnt[V]{key: b.keys[i], val: v, cell: b.vals[i], ver: ver})
			}
			return true
		}
		walk(m.root.Load(tx))
		return nil
	})
	return buf, more, err
}
