package storm

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/txstruct"
)

// workload is one pluggable storm target: it executes seeded random
// operations as transactions and later checks the recorded history against
// its own abstract model.
type workload interface {
	name() string
	// prepopulate runs serial recorded setup and returns its op records.
	prepopulate(rng *rand.Rand) ([]OpRecord, error)
	// step runs one random operation, choosing the semantics from the mix
	// restricted to what the operation tolerates.
	step(rng *rand.Rand, mix Mix) (OpRecord, error)
	// check verifies the abstract operations against the recorded history
	// and compares the model's final state with the live structure. It runs
	// once, after all workers have stopped.
	check(log *history.ExecLog, recs []OpRecord) error
}

// Workloads names every registered storm workload. "cells" runs over
// ref-shaped TypedCell[any] cells, "typedcells" over word-shaped
// TypedCell[int] — same operations, same checker, both representations of
// the one engine kept honest.
// "lrucache" storms the transactional LRU of internal/cache with hit-rate
// and invariant checking. "persist" is the crash-recovery storm: map
// mutations interleaved with on-disk full checkpoints, every
// checkpoint reloaded into a fresh TM and held to the model's state at its
// pin version. "privatize" storms the detach/republish read path: fenced
// map mutations interleaved with quiescence-barrier privatization cycles
// whose plain frozen reads are held to the model exactly at the detach
// epoch.
func Workloads() []string {
	return []string{"cells", "typedcells", "bank", "linkedlist", "skiplist", "hashset", "treemap", "queue", "lrucache", "persist", "privatize", "shardbank"}
}

func newWorkload(name string, tm *core.TM, keys, window int) (workload, error) {
	// Elastic updaters need the window to cover both the write target and
	// the read that justified it (a list insert reads pred and curr; a
	// transfer reads both accounts): at window 1 the runtime legitimately
	// drops the earlier read from revalidation, so histories that lose
	// updates are PERMITTED by elastic semantics — running them would make
	// the harness blame the runtime for a config foot-gun.
	elastic := window >= 2
	switch name {
	case "cells":
		return newCellsWorkload(tm, keys, false), nil
	case "typedcells":
		return newCellsWorkload(tm, keys, true), nil
	case "bank":
		return newBankWorkload(tm, keys, elastic), nil
	case "linkedlist":
		list := txstruct.NewList(tm, txstruct.ListConfig{})
		return &setWorkload{tag: "linkedlist", tm: tm, set: list, keys: keys, elasticOK: elastic}, nil
	case "skiplist":
		sl := txstruct.NewSkipList(tm, core.Snapshot)
		return &setWorkload{tag: "skiplist", tm: tm, set: sl, keys: keys}, nil
	case "hashset":
		hs := txstruct.NewHashSet(tm, 8, txstruct.ListConfig{})
		return &setWorkload{tag: "hashset", tm: tm, set: hs, keys: keys, elasticOK: elastic}, nil
	case "treemap":
		return &treeWorkload{tm: tm, m: txstruct.NewTreeMapOf[any](tm, core.Snapshot), keys: keys}, nil
	case "queue":
		return &queueWorkload{tm: tm, q: txstruct.NewQueueOf[any](tm, core.Snapshot), keys: keys}, nil
	case "lrucache":
		return newCacheWorkload(tm, keys), nil
	case "persist":
		return newPersistWorkload(tm, keys)
	case "privatize":
		return newPrivatizeWorkload(tm, keys), nil
	case "shardbank":
		return newShardBankWorkload(tm, keys), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, Workloads())
	}
}

// ---- intset-shaped structures (linkedlist, skiplist, hashset) ----

// setTx is the transactional face shared by the intset structures.
type setTx interface {
	AddTx(*core.Tx, int) bool
	RemoveTx(*core.Tx, int) bool
	ContainsTx(*core.Tx, int) bool
	SizeTx(*core.Tx) int
}

type setWorkload struct {
	tag       string
	tm        *core.TM
	set       setTx
	keys      int
	elasticOK bool // elastic parses are only safe where the window covers the write target
}

func (w *setWorkload) name() string { return w.tag }

func (w *setWorkload) prepopulate(rng *rand.Rand) ([]OpRecord, error) {
	var recs []OpRecord
	for i := 0; i < w.keys/2; i++ {
		rec, err := w.exec(core.Classic, Op{Kind: OpAdd, Key: rng.Intn(w.keys)})
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (w *setWorkload) updateSems() []core.Semantics {
	if w.elasticOK {
		return []core.Semantics{core.Classic, core.Elastic}
	}
	return []core.Semantics{core.Classic}
}

func (w *setWorkload) readSems() []core.Semantics {
	if w.elasticOK {
		return []core.Semantics{core.Classic, core.Elastic, core.Snapshot}
	}
	return []core.Semantics{core.Classic, core.Snapshot}
}

func (w *setWorkload) step(rng *rand.Rand, mix Mix) (OpRecord, error) {
	roll := rng.Intn(100)
	key := rng.Intn(w.keys)
	switch {
	case roll < 27:
		return w.exec(mix.pick(rng, w.updateSems()), Op{Kind: OpAdd, Key: key})
	case roll < 54:
		return w.exec(mix.pick(rng, w.updateSems()), Op{Kind: OpRemove, Key: key})
	case roll < 80:
		return w.exec(mix.pick(rng, w.readSems()), Op{Kind: OpContains, Key: key})
	case roll < 90:
		return w.exec(mix.pick(rng, []core.Semantics{core.Classic, core.Snapshot}), Op{Kind: OpSize})
	default:
		// Composed multi-op transaction: addIfAbsent(v, w) — insert v only
		// when witness w is absent, the paper's composition example. Both
		// observations commit under ONE classic transaction, so the model
		// checker holds them to a single instant: composition atomicity.
		return w.execAddIfAbsent(key, rng.Intn(w.keys))
	}
}

// execAddIfAbsent runs the composed contains(witness)+add(v) transaction,
// recorded as ONE abstract op (Key=v, Val=witness) so the seeded input
// digest stays result-independent: Bool carries whether v was inserted,
// Aux whether the witness was found. The checker decomposes the result
// and holds both observations to one serialization instant.
func (w *setWorkload) execAddIfAbsent(v, witness int) (OpRecord, error) {
	var (
		txid  uint64
		found bool
		added bool
	)
	err := w.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		txid = tx.ID()
		found = w.set.ContainsTx(tx, witness)
		added = false
		if !found {
			added = w.set.AddTx(tx, v)
		}
		return nil
	})
	op := Op{Kind: OpAddIfAbsent, Key: v, Val: witness, Bool: added}
	if found {
		op.Aux = 1
	}
	return OpRecord{TxID: txid, Sem: core.Classic, Ops: []Op{op}}, err
}

func (w *setWorkload) exec(sem core.Semantics, op Op) (OpRecord, error) {
	var txid uint64
	err := w.tm.Atomically(sem, func(tx *core.Tx) error {
		txid = tx.ID()
		switch op.Kind {
		case OpAdd:
			op.Bool = w.set.AddTx(tx, op.Key)
		case OpRemove:
			op.Bool = w.set.RemoveTx(tx, op.Key)
		case OpContains:
			op.Bool = w.set.ContainsTx(tx, op.Key)
		case OpSize:
			op.Int = w.set.SizeTx(tx)
		}
		return nil
	})
	return OpRecord{TxID: txid, Sem: sem, Ops: []Op{op}}, err
}

func (w *setWorkload) check(log *history.ExecLog, recs []OpRecord) error {
	members, err := checkSetModel(log, recs)
	if err != nil {
		return err
	}
	// The model's final membership must be the live structure's.
	var size int
	live := make(map[int]bool)
	if err := w.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		size = w.set.SizeTx(tx)
		clear(live)
		for k := 0; k < w.keys; k++ {
			if w.set.ContainsTx(tx, k) {
				live[k] = true
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if size != len(members) {
		return fmt.Errorf("%s: final size %d, model has %d members", w.tag, size, len(members))
	}
	for k := range members {
		if !live[k] {
			return fmt.Errorf("%s: model has key %d, live structure does not", w.tag, k)
		}
	}
	return nil
}

// ---- treemap ----

type treeWorkload struct {
	tm     *core.TM
	m      *txstruct.TreeMapOf[any]
	keys   int
	height int // filled by check for notes
}

func (w *treeWorkload) name() string { return "treemap" }

func (w *treeWorkload) prepopulate(rng *rand.Rand) ([]OpRecord, error) {
	var recs []OpRecord
	for i := 0; i < w.keys/2; i++ {
		rec, err := w.exec(core.Classic, Op{Kind: OpPut, Key: rng.Intn(w.keys), Val: rng.Intn(1 << 16)})
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (w *treeWorkload) step(rng *rand.Rand, mix Mix) (OpRecord, error) {
	roll := rng.Intn(100)
	key := rng.Intn(w.keys)
	classicOnly := []core.Semantics{core.Classic}
	reads := []core.Semantics{core.Classic, core.Snapshot}
	switch {
	case roll < 30:
		return w.exec(mix.pick(rng, classicOnly), Op{Kind: OpPut, Key: key, Val: rng.Intn(1 << 16)})
	case roll < 55:
		return w.exec(mix.pick(rng, classicOnly), Op{Kind: OpDelete, Key: key})
	case roll < 85:
		return w.exec(mix.pick(rng, reads), Op{Kind: OpGet, Key: key})
	default:
		return w.exec(mix.pick(rng, reads), Op{Kind: OpLen})
	}
}

func (w *treeWorkload) exec(sem core.Semantics, op Op) (OpRecord, error) {
	var txid uint64
	err := w.tm.Atomically(sem, func(tx *core.Tx) error {
		txid = tx.ID()
		switch op.Kind {
		case OpPut:
			op.Bool = w.m.PutTx(tx, op.Key, op.Val)
		case OpDelete:
			op.Bool = w.m.DeleteTx(tx, op.Key)
		case OpGet:
			v, found := w.m.GetTx(tx, op.Key)
			op.Bool = found
			if found {
				op.Int, _ = v.(int)
			}
		case OpLen:
			op.Int = w.m.LenTx(tx)
		}
		return nil
	})
	return OpRecord{TxID: txid, Sem: sem, Ops: []Op{op}}, err
}

func (w *treeWorkload) check(log *history.ExecLog, recs []OpRecord) error {
	vals, err := checkMapModel(log, recs)
	if err != nil {
		return err
	}
	keys, err := w.m.Keys()
	if err != nil {
		return err
	}
	want := make([]int, 0, len(vals))
	for k := range vals {
		want = append(want, k)
	}
	sort.Ints(want)
	if len(keys) != len(want) {
		return fmt.Errorf("treemap: final key count %d, model has %d", len(keys), len(want))
	}
	// At 4B keys the preload alone overflows a leaf: a run that never
	// split stayed in one leaf and exercised no inner node.
	if w.keys >= 4*txstruct.TreeFanout && w.m.Splits() == 0 {
		return fmt.Errorf("treemap: %d keys and no node split (B = %d)", w.keys, txstruct.TreeFanout)
	}
	if w.height, err = w.m.Height(); err != nil {
		return err
	}
	for i, k := range want {
		if keys[i] != k {
			return fmt.Errorf("treemap: final key[%d] = %d, model has %d", i, keys[i], k)
		}
		v, found, err := w.m.Get(k)
		if err != nil {
			return err
		}
		if !found || v != vals[k] {
			return fmt.Errorf("treemap: final value of %d is %v (found=%v), model has %d",
				k, v, found, vals[k])
		}
	}
	return nil
}

// notes reports the tree's final height and its committed splits.
func (w *treeWorkload) notes() []string {
	return []string{fmt.Sprintf("treemap: height %d, %d splits (B = %d)", w.height, w.m.Splits(), txstruct.TreeFanout)}
}

// ---- queue ----

type queueWorkload struct {
	tm   *core.TM
	q    *txstruct.QueueOf[any]
	keys int
}

func (w *queueWorkload) name() string { return "queue" }

func (w *queueWorkload) prepopulate(rng *rand.Rand) ([]OpRecord, error) {
	var recs []OpRecord
	for i := 0; i < w.keys/4; i++ {
		rec, err := w.exec(core.Classic, Op{Kind: OpEnq, Val: -i - 1})
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (w *queueWorkload) step(rng *rand.Rand, mix Mix) (OpRecord, error) {
	roll := rng.Intn(100)
	classicOnly := []core.Semantics{core.Classic}
	reads := []core.Semantics{core.Classic, core.Snapshot}
	switch {
	case roll < 40:
		return w.exec(mix.pick(rng, classicOnly), Op{Kind: OpEnq, Val: rng.Int()})
	case roll < 80:
		return w.exec(mix.pick(rng, classicOnly), Op{Kind: OpDeq})
	default:
		return w.exec(mix.pick(rng, reads), Op{Kind: OpLen})
	}
}

func (w *queueWorkload) exec(sem core.Semantics, op Op) (OpRecord, error) {
	var txid uint64
	err := w.tm.Atomically(sem, func(tx *core.Tx) error {
		txid = tx.ID()
		switch op.Kind {
		case OpEnq:
			w.q.EnqueueTx(tx, op.Val)
		case OpDeq:
			v, ok := w.q.DequeueTx(tx)
			op.Bool = ok
			if ok {
				op.Int, _ = v.(int)
			}
		case OpLen:
			op.Int = w.q.LenTx(tx)
		}
		return nil
	})
	return OpRecord{TxID: txid, Sem: sem, Ops: []Op{op}}, err
}

func (w *queueWorkload) check(log *history.ExecLog, recs []OpRecord) error {
	fifo, err := checkQueueModel(log, recs)
	if err != nil {
		return err
	}
	var items []any
	if err := w.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		items = w.q.ItemsTx(tx)
		return nil
	}); err != nil {
		return err
	}
	if len(items) != len(fifo) {
		return fmt.Errorf("queue: final len %d, model has %d", len(items), len(fifo))
	}
	for i, v := range fifo {
		if items[i] != v {
			return fmt.Errorf("queue: final item[%d] = %v, model has %d", i, items[i], v)
		}
	}
	return nil
}

// ---- raw cells ----

// intSlot abstracts one int-valued transactional location so the cells
// storm drives the ref-shaped TypedCell[any] and the word-shaped
// TypedCell[int] through identical operation streams (and one checker).
type intSlot interface {
	load(tx *core.Tx) int
	store(tx *core.Tx, v int)
}

type refSlot struct{ c *core.TypedCell[any] }

func (s refSlot) load(tx *core.Tx) int {
	v, _ := s.c.Load(tx).(int)
	return v
}
func (s refSlot) store(tx *core.Tx, v int) { s.c.Store(tx, v) }

type wordSlot struct{ c *core.TypedCell[int] }

func (s wordSlot) load(tx *core.Tx) int     { return s.c.Load(tx) }
func (s wordSlot) store(tx *core.Tx, v int) { s.c.Store(tx, v) }

type cellsWorkload struct {
	tm    *core.TM
	tag   string
	cells []intSlot
}

func newCellsWorkload(tm *core.TM, keys int, typed bool) *cellsWorkload {
	w := &cellsWorkload{tm: tm, tag: "cells", cells: make([]intSlot, keys)}
	if typed {
		w.tag = "typedcells"
	}
	for i := range w.cells {
		if typed {
			w.cells[i] = wordSlot{c: core.NewTypedCell(tm, 0)}
		} else {
			w.cells[i] = refSlot{c: core.NewTypedCell[any](tm, 0)}
		}
	}
	return w
}

func (w *cellsWorkload) name() string { return w.tag }

func (w *cellsWorkload) prepopulate(*rand.Rand) ([]OpRecord, error) { return nil, nil }

// pickCells draws 1..3 distinct cell indexes (fewer when the workload has
// fewer cells than the draw — without the clamp the distinct-draw loop
// would spin forever).
func (w *cellsWorkload) pickCells(rng *rand.Rand) []int {
	n := 1 + rng.Intn(3)
	if n > len(w.cells) {
		n = len(w.cells)
	}
	seen := make(map[int]bool, n)
	var out []int
	for len(out) < n {
		k := rng.Intn(len(w.cells))
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func (w *cellsWorkload) step(rng *rand.Rand, mix Mix) (OpRecord, error) {
	keys := w.pickCells(rng)
	roll := rng.Intn(100)
	switch {
	case roll < 40:
		// Mixed updater: reads and writes interleave in one transaction,
		// so the checker gets updater-read observations to value-check
		// (a pure-write transaction proves nothing about what updaters
		// SEE, only about what they install).
		var ops []Op
		for _, k := range keys {
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, Op{Kind: OpWrite, Key: k, Val: rng.Intn(1 << 20)})
			case 1:
				ops = append(ops, Op{Kind: OpRead, Key: k})
			default: // read-modify-write of the same cell
				ops = append(ops,
					Op{Kind: OpRead, Key: k},
					Op{Kind: OpWrite, Key: k, Val: rng.Intn(1 << 20)})
			}
		}
		return w.exec(mix.pick(rng, []core.Semantics{core.Classic, core.Elastic}), ops)
	case roll < 50:
		ops := make([]Op, len(keys))
		for i, k := range keys {
			ops[i] = Op{Kind: OpWrite, Key: k, Val: rng.Intn(1 << 20)}
		}
		return w.exec(mix.pick(rng, []core.Semantics{core.Classic, core.Elastic}), ops)
	default:
		ops := make([]Op, len(keys))
		for i, k := range keys {
			ops[i] = Op{Kind: OpRead, Key: k}
		}
		return w.exec(mix.pick(rng, []core.Semantics{core.Classic, core.Elastic, core.Snapshot}), ops)
	}
}

func (w *cellsWorkload) exec(sem core.Semantics, ops []Op) (OpRecord, error) {
	var txid uint64
	err := w.tm.Atomically(sem, func(tx *core.Tx) error {
		txid = tx.ID()
		for i := range ops {
			switch ops[i].Kind {
			case OpWrite:
				w.cells[ops[i].Key].store(tx, ops[i].Val)
			case OpRead:
				ops[i].Int = w.cells[ops[i].Key].load(tx)
			}
		}
		return nil
	})
	return OpRecord{TxID: txid, Sem: sem, Ops: ops}, err
}

func (w *cellsWorkload) check(log *history.ExecLog, recs []OpRecord) error {
	finals, err := checkCellsModel(log, recs)
	if err != nil {
		return fmt.Errorf("%s: %w", w.tag, err)
	}
	return w.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		for key, want := range finals {
			if got := w.cells[key].load(tx); got != want {
				return fmt.Errorf("%s: final cell %d = %d, model has %d", w.tag, key, got, want)
			}
		}
		return nil
	})
}

// ---- bank ----

// bankWorkload runs over typed cells: transfers and audits move int
// balances through the word-specialized records, so the soak's hot loop is
// allocation-free like the benches it guards.
//
// Transfers are CONDITIONAL compositions: check the source balance, then
// move the money only when it suffices — so the workload carries a second
// global invariant besides the conserved total: no balance ever drops
// below zero. Two racing transfers that both read the same balance and
// both debit it would break the invariant; it holds exactly when the
// check and the debit are atomic as a unit (composition atomicity, the
// ROADMAP's multi-op item). A slice of transfers additionally routes
// through OrElse — transfer-or-retry: the first branch blocks (Retry)
// when funds are short, the second records the decline — exercising the
// combinator machinery inside the storm.
type bankWorkload struct {
	tm        *core.TM
	accounts  []*core.TypedCell[int]
	total     int
	elasticOK bool // transfers read both accounts: need window >= 2
}

func newBankWorkload(tm *core.TM, keys int, elasticOK bool) *bankWorkload {
	w := &bankWorkload{tm: tm, accounts: make([]*core.TypedCell[int], keys), total: 100 * keys, elasticOK: elasticOK}
	for i := range w.accounts {
		w.accounts[i] = core.NewTypedCell(tm, 100)
	}
	return w
}

func (w *bankWorkload) name() string { return "bank" }

func (w *bankWorkload) prepopulate(*rand.Rand) ([]OpRecord, error) { return nil, nil }

func (w *bankWorkload) step(rng *rand.Rand, mix Mix) (OpRecord, error) {
	if rng.Intn(100) < 80 {
		from := rng.Intn(len(w.accounts))
		to := rng.Intn(len(w.accounts))
		for to == from {
			to = rng.Intn(len(w.accounts))
		}
		// Amounts up to 3/5 of the initial balance, so insufficient funds
		// actually occur and the conditional composition is exercised on
		// both outcomes.
		amount := 1 + rng.Intn(60)
		if rng.Intn(4) == 0 {
			return w.execTransferOrRetry(from, to, amount)
		}
		transferSems := []core.Semantics{core.Classic}
		if w.elasticOK {
			transferSems = append(transferSems, core.Elastic)
		}
		return w.execTransfer(mix.pick(rng, transferSems), from, to, amount)
	}
	// Whole-state audit: the sum is invariant, so EVERY committed audit
	// must observe exactly the total — the sharpest cross-semantics check.
	// With all debits conditional, the minimum balance must additionally
	// never go negative (Aux carries the observed minimum).
	return w.execSum(mix.pick(rng, []core.Semantics{core.Classic, core.Snapshot}))
}

// execTransfer runs one conditional transfer under sem.
func (w *bankWorkload) execTransfer(sem core.Semantics, from, to, amount int) (OpRecord, error) {
	var txid uint64
	var observed int
	var performed bool
	err := w.tm.Atomically(sem, func(tx *core.Tx) error {
		txid = tx.ID()
		observed = w.accounts[from].Load(tx)
		performed = observed >= amount
		if performed {
			tv := w.accounts[to].Load(tx)
			w.accounts[from].Store(tx, observed-amount)
			w.accounts[to].Store(tx, tv+amount)
		}
		return nil
	})
	return OpRecord{TxID: txid, Sem: sem,
		Ops: []Op{{Kind: OpTransfer, Key: from, Val: to, Int: amount, Bool: performed, Aux: observed}}}, err
}

// execSum runs one whole-state audit under sem.
func (w *bankWorkload) execSum(sem core.Semantics) (OpRecord, error) {
	var txid uint64
	var sum, min int
	err := w.tm.Atomically(sem, func(tx *core.Tx) error {
		txid = tx.ID()
		sum = 0
		min = int(^uint(0) >> 1)
		for _, c := range w.accounts {
			v := c.Load(tx)
			sum += v
			if v < min {
				min = v
			}
		}
		return nil
	})
	return OpRecord{TxID: txid, Sem: sem, Ops: []Op{{Kind: OpSum, Int: sum, Aux: min}}}, err
}

// execTransferOrRetry is the transfer composed with the Retry/OrElse
// combinators: the first branch insists on sufficient funds and blocks
// otherwise; the second branch turns the block into a recorded decline,
// keeping the storm non-blocking as a whole. Both branches run inside one
// classic transaction — whichever commits is the operation's outcome.
func (w *bankWorkload) execTransferOrRetry(from, to, amount int) (OpRecord, error) {
	var (
		txid      uint64
		observed  int
		performed bool
	)
	err := w.tm.OrElse(
		func(tx *core.Tx) error {
			txid = tx.ID()
			observed = w.accounts[from].Load(tx)
			if observed < amount {
				tx.Retry()
			}
			performed = true
			tv := w.accounts[to].Load(tx)
			w.accounts[from].Store(tx, observed-amount)
			w.accounts[to].Store(tx, tv+amount)
			return nil
		},
		func(tx *core.Tx) error {
			txid = tx.ID()
			observed = w.accounts[from].Load(tx)
			performed = false
			return nil
		},
	)
	return OpRecord{TxID: txid, Sem: core.Classic,
		Ops: []Op{{Kind: OpTransfer, Key: from, Val: to, Int: amount, Bool: performed, Aux: observed}}}, err
}

func (w *bankWorkload) check(log *history.ExecLog, recs []OpRecord) error {
	ctx := newReplayCtx(log, recs)
	balances := make([]int, len(w.accounts))
	timelines := make([]*countTimeline, len(w.accounts))
	for i := range balances {
		balances[i] = 100
		timelines[i] = &countTimeline{init: 100}
	}
	updaters, readOnly := ctx.partition()
	for _, u := range updaters {
		for _, op := range u.rec.Ops {
			if op.Kind != OpTransfer || !op.Bool {
				return fmt.Errorf("bank: tx %d (%s) unexpected updater op %s", u.ex.ID, u.ex.Sem, op.Kind)
			}
			// Composition atomicity: the balance the transfer decided on
			// must be the model balance just below its commit instant
			// (both classic and elastic transfers validate the source
			// read at commit: it is in the elastic window that seeds the
			// final piece), and it must have sufficed.
			if op.Aux != balances[op.Key] {
				return fmt.Errorf("bank: tx %d (%s) transfer observed balance %d, model has %d below instant %d",
					u.ex.ID, u.ex.Sem, op.Aux, balances[op.Key], u.ex.CommitVer)
			}
			if op.Aux < op.Int {
				return fmt.Errorf("bank: tx %d (%s) moved %d from account %d holding %d",
					u.ex.ID, u.ex.Sem, op.Int, op.Key, op.Aux)
			}
			balances[op.Key] -= op.Int
			balances[op.Val] += op.Int
			timelines[op.Key].apply(u.ex.CommitVer, balances[op.Key])
			timelines[op.Val].apply(u.ex.CommitVer, balances[op.Val])
		}
	}
	for _, p := range readOnly {
		lo, hi := ctx.window(p.ex)
		for _, op := range p.rec.Ops {
			switch op.Kind {
			case OpTransfer: // declined: the observed balance must be real and short
				if op.Bool {
					return fmt.Errorf("bank: tx %d (%s) performed a transfer without writing", p.ex.ID, p.ex.Sem)
				}
				if op.Aux >= op.Int {
					return fmt.Errorf("bank: tx %d (%s) declined with sufficient balance %d >= %d",
						p.ex.ID, p.ex.Sem, op.Aux, op.Int)
				}
				if !timelines[op.Key].matchesIn(lo, hi, op.Aux) {
					return fmt.Errorf("bank: tx %d (%s) declined on balance %d, never held in [%d,%d]",
						p.ex.ID, p.ex.Sem, op.Aux, lo, hi)
				}
			case OpSum:
				if op.Int != w.total {
					return fmt.Errorf("bank: tx %d (%s) audit saw total %d, want %d",
						p.ex.ID, p.ex.Sem, op.Int, w.total)
				}
				if op.Aux < 0 {
					return fmt.Errorf("bank: tx %d (%s) audit saw negative balance %d — conditional transfers overdrew",
						p.ex.ID, p.ex.Sem, op.Aux)
				}
			default:
				return fmt.Errorf("bank: tx %d (%s) unexpected read-only op %s", p.ex.ID, p.ex.Sem, op.Kind)
			}
		}
	}
	var sum, min int
	if err := w.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		sum = 0
		min = int(^uint(0) >> 1)
		for _, c := range w.accounts {
			v := c.Load(tx)
			sum += v
			if v < min {
				min = v
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if sum != w.total {
		return fmt.Errorf("bank: final total %d, want %d", sum, w.total)
	}
	if min < 0 {
		return fmt.Errorf("bank: final minimum balance %d, want >= 0", min)
	}
	return nil
}
