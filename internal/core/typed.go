package core

import (
	"reflect"
	"unsafe"
)

// This file is the typed skin over the untyped cell engine: generic
// specialization happens HERE and only here, at the boundary where a value
// of static type T is encoded into (or decoded out of) the engine's vbox
// currency. Everything below the boundary — the three read semantics, the
// contention manager, the recorder, the commit path — runs one shared code
// path for every instantiation, which is what keeps the polymorphic
// runtime's guarantees uniform across cell types.

// TypedCell is a transactional memory location holding a T. For word-sized
// pointer-free T (int, bool, float64, small value structs) and
// single-pointer T (*S, map, chan, func) the payload is stored in
// specialized record fields instead of an `any`, so the update path
// neither boxes on Store nor allocates a version record on commit: a warm
// update transaction over such cells is allocation-free. Other T (strings,
// interfaces, multi-word structs) fall back to the boxed representation;
// TypedCell[any] is the cell for heterogeneous values.
//
// A TypedCell is either allocated on its own by NewTypedCell or embedded
// by value in a larger structure — a list node's links, say — and
// initialized in place by InitTypedCell, so a node and all its cells are
// one allocation. Either way it is used only with transactions of the TM
// that initialized it, and never copied after initialization (go vet's
// copylocks check reports copies, through the cell's atomic fields).
// Cells of every T interoperate freely inside one transaction: they share
// the engine, the clock, and every semantics.
type TypedCell[T any] struct {
	h cell
}

// NewTypedCell allocates a transactional memory location holding initial.
// The cell starts at version 0, readable by every transaction.
//
// Cell IDs are drawn from pooled blocks, so IDs are unique and totally
// ordered (all the commit lock order needs) but not dense in creation
// order.
func NewTypedCell[T any](tm *TM, initial T) *TypedCell[T] {
	c := new(TypedCell[T])
	InitTypedCell(tm, c, initial)
	return c
}

// InitTypedCell initializes the zero cell c in place to hold initial, at
// version 0, for transactions of tm. It panics when c is already
// initialized: a cell's identity and history are fixed for its lifetime.
func InitTypedCell[T any](tm *TM, c *TypedCell[T], initial T) {
	if c.h.cur.Load() != nil {
		panic("core: InitTypedCell of an initialized cell")
	}
	s := shapeFor[T]()
	tm.initCell(&c.h, s, encodeVal(s, initial))
}

// ID returns the cell's unique identity within its TM. It is stable for
// the life of the cell and is the identity used by the history recorder.
func (c *TypedCell[T]) ID() uint64 { return c.h.id }

// Load returns the cell's value as observed by tx under its semantics,
// without boxing. Reads of cells the transaction has already written
// return the buffered value (read-your-writes).
//
// Load never returns an inconsistent value: attempts that observe a
// conflict are unwound and retried by Atomically.
func (c *TypedCell[T]) Load(tx *Tx) T {
	if c == nil {
		panic("core: Load of nil cell")
	}
	return decodeVal[T](c.h.shape, tx.load(&c.h))
}

// Store buffers a write of value to the cell; it becomes visible
// atomically at commit. Inside a snapshot transaction Store aborts the
// transaction permanently with an error matching ErrWriteInSnapshot, since
// snapshot semantics is read-only by construction (section 5.1 of the
// paper).
//
// The first Store of an elastic transaction seals its parse phase: the
// current window becomes the seed read set of the final piece, which from
// then on behaves like a classic transaction (section 4.2).
func (c *TypedCell[T]) Store(tx *Tx, value T) {
	if c == nil {
		panic("core: Store to nil cell")
	}
	tx.store(&c.h, encodeVal(c.h.shape, value), false)
}

// StoreFinal is Store for the last write a cell will ever see — the
// scrub of a node being unlinked from its structure, after which no
// transaction reaches the cell again. The write is buffered, validated
// and made visible like any other; what differs is the install, which
// drops the cell's version history instead of keeping the configured
// number of past versions, so a dead node stops pinning whatever its
// links used to point at. History a SnapshotPin can still read is kept,
// exactly as on a plain Store, and is cut by the first install after the
// pin releases. An UNPINNED snapshot transaction whose start predates the
// commit finds no version old enough, aborts (AbortSnapshotTooOld) and
// retries at a newer bound: it may retry, it never sees a wrong value.
func (c *TypedCell[T]) StoreFinal(tx *Tx, value T) {
	if c == nil {
		panic("core: StoreFinal to nil cell")
	}
	tx.store(&c.h, encodeVal(c.h.shape, value), true)
}

// Release performs an early release (section 4.1 of the paper): the cell
// is dropped from tx's read set and window, so future conflicts on it are
// ignored. This is the expert-only escape hatch; releasing a location that
// a composed caller still depends on breaks atomicity of the composition —
// the documented addIfAbsent anomaly, demonstrated in the tests.
func (c *TypedCell[T]) Release(tx *Tx) {
	if c == nil {
		return
	}
	tx.release(&c.h)
}

// encodeVal packs a value of static type T into the representation the
// cell's shape selects. Word and pointer encodings are allocation-free;
// the ref encoding boxes (free for pointer-shaped values, one allocation
// for value types — the ref shape's documented cost).
func encodeVal[T any](s cellShape, v T) vbox {
	switch s {
	case shapeWord:
		return vbox{word: wordOf(v)}
	case shapePtr:
		// The *byte rides the interface field without allocating
		// (pointer payload, static type); see vbox.
		return vbox{ref: ptrOf(v)}
	default:
		return vbox{ref: v}
	}
}

// decodeVal unpacks a vbox produced by encodeVal with the same shape and T.
func decodeVal[T any](s cellShape, v vbox) T {
	switch s {
	case shapeWord:
		return wordTo[T](v.word)
	case shapePtr:
		p, _ := v.ref.(*byte)
		return ptrTo[T](p)
	default:
		if v.ref == nil {
			var zero T
			return zero
		}
		return v.ref.(T)
	}
}

// shapeFor picks the payload representation for T. The fast path covers
// the common word kinds without reflection; everything else is classified
// once per cell creation by reflect (never on the Load/Store hot path —
// the result is stored in the cell header).
func shapeFor[T any]() cellShape {
	var zero T
	switch any(zero).(type) {
	case bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64, uintptr,
		float32, float64:
		return shapeWord
	}
	t := reflect.TypeFor[T]()
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func:
		return shapePtr
	}
	if t.Size() <= 8 && pointerFree(t) {
		return shapeWord
	}
	return shapeRef
}

// pointerFree reports whether values of t contain no pointer words, the
// safety condition for bit-storing them in a plain uint64 (a pointer
// hidden in an integer word would be invisible to the GC).
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64, reflect.Complex64:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// wordOf bit-stores v (at most eight pointer-free bytes, checked by
// shapeFor) into the low bytes of a word. The unsafe cast writes T into a
// stack-local uint64, so the conversion cannot allocate or hide pointers.
func wordOf[T any](v T) uint64 {
	var w uint64
	*(*T)(unsafe.Pointer(&w)) = v
	return w
}

// wordTo is the inverse of wordOf.
func wordTo[T any](w uint64) T {
	return *(*T)(unsafe.Pointer(&w))
}

// ptrOf stores a single-pointer-word value (pointer, map, chan, func —
// checked by shapeFor) as a *byte. The slot keeps carrying a real pointer,
// so the referent stays visible to the GC.
func ptrOf[T any](v T) *byte {
	var p *byte
	*(*T)(unsafe.Pointer(&p)) = v
	return p
}

// ptrTo is the inverse of ptrOf.
func ptrTo[T any](p *byte) T {
	return *(*T)(unsafe.Pointer(&p))
}
