package txstruct

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/intset"
)

// skipMaxLevel bounds tower heights; 2^16 expected elements is far beyond
// the Collection benchmark sizes.
const skipMaxLevel = 16

// snode is one skip-list node: an immutable value and one typed next-cell
// per level (each holding the successor *snode), so tower traversals carry
// node pointers without interface boxing or type assertions. The tower is
// one slice of cells, so a node is two allocations at any height.
type snode struct {
	val  int
	next []core.TypedCell[*snode]
}

// SkipList is a transactional skip list integer set.
//
// Parse operations run as classic transactions: a skip-list update writes
// predecessor pointers at several levels that were read arbitrarily far
// apart, which the elastic window cannot cover (the list's window
// argument does not transfer), so the elastic label is deliberately not
// offered. Size and Elements run under the configured read-only
// semantics (Snapshot by default) and therefore neither abort nor block
// updates — mixing semantics across *structures* is the point of the
// polymorphic runtime.
type SkipList struct {
	tm      *core.TM
	sizeSem core.Semantics
	head    *snode // sentinel tower; head.next[l] holds the first node at level l
}

var (
	_ intset.Set         = (*SkipList)(nil)
	_ intset.Snapshotter = (*SkipList)(nil)
)

// NewSkipList builds an empty skip list; sizeSem selects the semantics of
// Size/Elements (0 defaults to Snapshot).
func NewSkipList(tm *core.TM, sizeSem core.Semantics) *SkipList {
	if sizeSem == 0 {
		sizeSem = core.Snapshot
	}
	return &SkipList{tm: tm, sizeSem: sizeSem, head: newSnode(tm, 0, make([]*snode, skipMaxLevel))}
}

// newSnode builds a node of value v whose tower links level l to succs[l].
func newSnode(tm *core.TM, v int, succs []*snode) *snode {
	n := &snode{val: v, next: make([]core.TypedCell[*snode], len(succs))}
	for l, succ := range succs {
		core.InitTypedCell(tm, &n.next[l], succ)
	}
	return n
}

// levelOf derives a deterministic tower height from the value: the number
// of trailing ones of a mixed hash, the usual p=1/2 geometric
// distribution but reproducible across runs (no shared RNG state to
// contend on).
func levelOf(v int) int {
	x := uint64(v)*0x9e3779b97f4a7c15 + 0x517cc1b727220a95
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	h := bits.TrailingZeros64(x|1<<skipMaxLevel) + 1
	if h > skipMaxLevel {
		h = skipMaxLevel
	}
	return h
}

// findTx fills preds/succs: preds[l] is the last node at level l with
// value < v (possibly the head sentinel), succs[l] its successor.
func (s *SkipList) findTx(tx *core.Tx, v int, preds []*snode, succs []*snode) {
	pred := s.head
	for l := skipMaxLevel - 1; l >= 0; l-- {
		curr := pred.next[l].Load(tx)
		for curr != nil && curr.val < v {
			pred = curr
			curr = pred.next[l].Load(tx)
		}
		preds[l] = pred
		succs[l] = curr
	}
}

// ContainsTx reports membership inside the caller's transaction.
func (s *SkipList) ContainsTx(tx *core.Tx, v int) bool {
	pred := s.head
	for l := skipMaxLevel - 1; l >= 0; l-- {
		curr := pred.next[l].Load(tx)
		for curr != nil && curr.val < v {
			pred = curr
			curr = pred.next[l].Load(tx)
		}
		if curr != nil && curr.val == v {
			return true
		}
	}
	return false
}

// AddTx inserts v inside the caller's transaction.
func (s *SkipList) AddTx(tx *core.Tx, v int) bool {
	var preds, succs [skipMaxLevel]*snode
	s.findTx(tx, v, preds[:], succs[:])
	if succs[0] != nil && succs[0].val == v {
		return false
	}
	h := levelOf(v)
	n := newSnode(s.tm, v, succs[:h])
	for l := 0; l < h; l++ {
		preds[l].next[l].Store(tx, n)
	}
	return true
}

// RemoveTx deletes v inside the caller's transaction.
func (s *SkipList) RemoveTx(tx *core.Tx, v int) bool {
	var preds, succs [skipMaxLevel]*snode
	s.findTx(tx, v, preds[:], succs[:])
	victim := succs[0]
	if victim == nil || victim.val != v {
		return false
	}
	for l := 0; l < len(victim.next); l++ {
		succ := victim.next[l].Load(tx)
		preds[l].next[l].Store(tx, succ)
		// Republish the victim's pointer (version bump) so concurrent
		// parses resting on the unlinked node conflict, mirroring the
		// linked list's removal discipline.
		victim.next[l].Store(tx, succ)
	}
	return true
}

// SizeTx counts the elements (bottom level) inside the caller's
// transaction.
func (s *SkipList) SizeTx(tx *core.Tx) int {
	n := 0
	for curr := s.head.next[0].Load(tx); curr != nil; curr = curr.next[0].Load(tx) {
		n++
	}
	return n
}

// ElementsTx returns the members ascending inside the caller's
// transaction.
func (s *SkipList) ElementsTx(tx *core.Tx) []int {
	var out []int
	for curr := s.head.next[0].Load(tx); curr != nil; curr = curr.next[0].Load(tx) {
		out = append(out, curr.val)
	}
	return out
}

// SnapshotRange visits members with lo <= v <= hi in ascending order at
// the pin's version (bottom level walk), mirroring List.SnapshotRange: a
// consistent cut frozen at pin time with zero write-path interference.
// Each call is one snapshot transaction and may retry: fn must tolerate
// re-invocation from the first member (see TreeMapOf.SnapshotRange).
func (s *SkipList) SnapshotRange(p *core.SnapshotPin, lo, hi int, fn func(v int) bool) error {
	return p.Atomically(func(tx *core.Tx) error {
		for curr := s.head.next[0].Load(tx); curr != nil && curr.val <= hi; curr = curr.next[0].Load(tx) {
			if curr.val >= lo && !fn(curr.val) {
				return nil
			}
		}
		return nil
	})
}

// Contains implements intset.Set.
func (s *SkipList) Contains(v int) (bool, error) {
	var found bool
	err := s.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		found = s.ContainsTx(tx, v)
		return nil
	})
	return found, err
}

// Add implements intset.Set.
func (s *SkipList) Add(v int) (bool, error) {
	var added bool
	err := s.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		added = s.AddTx(tx, v)
		return nil
	})
	return added, err
}

// Remove implements intset.Set.
func (s *SkipList) Remove(v int) (bool, error) {
	var removed bool
	err := s.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		removed = s.RemoveTx(tx, v)
		return nil
	})
	return removed, err
}

// Size implements intset.Set under the configured read-only semantics.
func (s *SkipList) Size() (int, error) {
	var n int
	err := s.tm.Atomically(s.sizeSem, func(tx *core.Tx) error {
		n = s.SizeTx(tx)
		return nil
	})
	return n, err
}

// Elements implements intset.Snapshotter.
func (s *SkipList) Elements() ([]int, error) {
	var out []int
	err := s.tm.Atomically(s.sizeSem, func(tx *core.Tx) error {
		out = s.ElementsTx(tx)
		return nil
	})
	return out, err
}
