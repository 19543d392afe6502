package txstruct

import (
	"repro/internal/core"
)

// qnode is one queue node; the value is immutable after creation and next
// is a typed cell holding the successor *qnode, embedded in the node.
type qnode[T any] struct {
	val  T
	next core.TypedCell[*qnode[T]]
}

// QueueOf is a typed transactional FIFO queue. Enqueue and Dequeue run as
// classic transactions (the endpoints are contention hot spots where
// relaxation buys nothing); Len runs under the configured size semantics,
// so a monitoring loop can measure a live queue without throttling it —
// the same pattern as the paper's size operation. The element type is
// generic: QueueOf[int] moves its payloads unboxed end to end.
type QueueOf[T any] struct {
	tm      *core.TM
	sizeSem core.Semantics
	head    core.TypedCell[*qnode[T]]
	tail    core.TypedCell[*qnode[T]]
}

// NewQueueOf builds an empty typed queue; sizeSem selects Len's semantics
// (0 defaults to Snapshot).
func NewQueueOf[T any](tm *core.TM, sizeSem core.Semantics) *QueueOf[T] {
	if sizeSem == 0 {
		sizeSem = core.Snapshot
	}
	q := &QueueOf[T]{tm: tm, sizeSem: sizeSem}
	core.InitTypedCell(tm, &q.head, nil)
	core.InitTypedCell(tm, &q.tail, nil)
	return q
}

// EnqueueTx appends v inside the caller's transaction.
func (q *QueueOf[T]) EnqueueTx(tx *core.Tx, v T) {
	n := &qnode[T]{val: v}
	core.InitTypedCell(q.tm, &n.next, nil)
	t := q.tail.Load(tx)
	if t == nil {
		q.head.Store(tx, n)
	} else {
		t.next.Store(tx, n)
	}
	q.tail.Store(tx, n)
}

// DequeueTx removes and returns the oldest element inside the caller's
// transaction; ok is false when the queue is empty.
func (q *QueueOf[T]) DequeueTx(tx *core.Tx) (v T, ok bool) {
	h := q.head.Load(tx)
	if h == nil {
		var zero T
		return zero, false
	}
	next := h.next.Load(tx)
	q.head.Store(tx, next)
	if next == nil {
		q.tail.Store(tx, nil)
	}
	return h.val, true
}

// EachTx walks the queue oldest-first inside the caller's transaction,
// stopping early when fn returns false. Under Snapshot semantics this is
// the Java-Iterator pattern of the paper's section 5.1: a consistent
// frozen view of a live structure.
func (q *QueueOf[T]) EachTx(tx *core.Tx, fn func(v T) bool) {
	for curr := q.head.Load(tx); curr != nil; curr = curr.next.Load(tx) {
		if !fn(curr.val) {
			return
		}
	}
}

// ItemsTx returns all elements oldest-first inside the caller's
// transaction.
func (q *QueueOf[T]) ItemsTx(tx *core.Tx) []T {
	var out []T
	q.EachTx(tx, func(v T) bool {
		out = append(out, v)
		return true
	})
	return out
}

// LenTx counts the elements inside the caller's transaction.
func (q *QueueOf[T]) LenTx(tx *core.Tx) int {
	n := 0
	for curr := q.head.Load(tx); curr != nil; curr = curr.next.Load(tx) {
		n++
	}
	return n
}

// Enqueue appends v atomically.
func (q *QueueOf[T]) Enqueue(v T) error {
	return q.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		q.EnqueueTx(tx, v)
		return nil
	})
}

// Dequeue removes the oldest element; ok is false when the queue is empty.
func (q *QueueOf[T]) Dequeue() (v T, ok bool, err error) {
	err = q.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		v, ok = q.DequeueTx(tx)
		return nil
	})
	return v, ok, err
}

// Len returns an atomic count under the configured size semantics.
func (q *QueueOf[T]) Len() (int, error) {
	var n int
	err := q.tm.Atomically(q.sizeSem, func(tx *core.Tx) error {
		n = q.LenTx(tx)
		return nil
	})
	return n, err
}
