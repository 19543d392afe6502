package storm

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/history"
)

// OpKind labels one abstract operation of a workload.
type OpKind int

const (
	// OpAdd / OpRemove / OpContains / OpSize are the intset operations.
	OpAdd OpKind = iota + 1
	OpRemove
	OpContains
	OpSize
	// OpPut / OpDelete / OpGet / OpLen are the map operations.
	OpPut
	OpDelete
	OpGet
	OpLen
	// OpEnq / OpDeq are the queue operations (OpLen doubles as queue length).
	OpEnq
	OpDeq
	// OpWrite / OpRead are raw-cell operations; OpSum is the bank's
	// whole-state read.
	OpWrite
	OpRead
	OpTransfer
	OpSum
	// OpPeek is the cache's non-promoting read; OpGet doubles as the
	// promoting cache read.
	OpPeek
	// OpAddIfAbsent is the composed set transaction contains(Val) +
	// conditional add(Key): one abstract op whose two observations must
	// hold at one serialization instant (composition atomicity).
	OpAddIfAbsent
	// OpBackup marks one checkpoint cycle of the persist workload: a pin
	// plus a full checkpoint written to disk and the WAL trimmed to it. It
	// is recorded with TxID 0 (the cycle spans many snapshot transactions,
	// none of which serializes an abstract map operation), so the history
	// checker never joins it; it exists so the cycle enters the seeded input
	// digest and the report's op count.
	OpBackup
	// OpDetach marks one privatization cycle of the privatize workload:
	// fence → detach barrier → plain read burst → republish → unfence.
	// Like OpBackup it is recorded with TxID 0 and checked out-of-band
	// (every frozen read must equal the model exactly at the detach
	// epoch).
	OpDetach
)

// String names the op for failure messages.
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpContains:
		return "contains"
	case OpSize:
		return "size"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpGet:
		return "get"
	case OpLen:
		return "len"
	case OpEnq:
		return "enq"
	case OpDeq:
		return "deq"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpTransfer:
		return "transfer"
	case OpSum:
		return "sum"
	case OpPeek:
		return "peek"
	case OpAddIfAbsent:
		return "addIfAbsent"
	case OpBackup:
		return "backup"
	case OpDetach:
		return "detach"
	default:
		return "unknown"
	}
}

// Op is one abstract operation with its observed result. Which fields are
// meaningful depends on Kind: Bool carries add/remove/contains/put/delete
// results, get's found and deq's ok; Int carries size/len/sum results,
// get's and deq's observed value, and read's observed cell value. Aux
// carries secondary observations: the bank transfer's observed source
// balance, the audit's minimum balance, addIfAbsent's witness-found flag.
// Only Kind, Key and Val may enter the seeded input digest — Bool, Int
// and Aux are results.
type Op struct {
	Kind OpKind
	Key  int
	Val  int
	Bool bool
	Int  int
	Aux  int
}

// OpRecord is the abstract trace of one committed transaction: the tx ID
// joins it with the recorded history, and the ops are what the worker
// observed. Uncommitted attempts never produce records.
type OpRecord struct {
	TxID uint64
	Sem  core.Semantics
	Ops  []Op
}

// change is one state transition of a key at a serialization instant.
type change struct {
	ver     uint64
	present bool
	val     int
}

// keyTimeline tracks per-key abstract state over serialization instants,
// built by replaying the committed updaters in serialization order.
type keyTimeline struct {
	byKey map[int][]change
	// initial state for keys without changes (raw cells start present
	// with value 0; set members start absent).
	initPresent bool
	initVal     int
}

func newKeyTimeline(initPresent bool, initVal int) *keyTimeline {
	return &keyTimeline{byKey: make(map[int][]change), initPresent: initPresent, initVal: initVal}
}

// apply records a state transition at instant ver. Instants must be
// non-decreasing per key (guaranteed by serialization-order replay).
func (t *keyTimeline) apply(key int, ver uint64, present bool, val int) {
	t.byKey[key] = append(t.byKey[key], change{ver: ver, present: present, val: val})
}

// at returns the key's state at the given instant.
func (t *keyTimeline) at(key int, instant uint64) (bool, int) {
	cs := t.byKey[key]
	i := sort.Search(len(cs), func(i int) bool { return cs[i].ver > instant })
	if i == 0 {
		return t.initPresent, t.initVal
	}
	return cs[i-1].present, cs[i-1].val
}

// matchesIn reports whether some instant in [lo, hi] has the key in state
// (present, val); val is compared only when checkVal is set.
func (t *keyTimeline) matchesIn(key int, lo, hi uint64, present bool, val int, checkVal bool) bool {
	eq := func(p bool, v int) bool {
		return p == present && (!checkVal || !present || v == val)
	}
	p, v := t.at(key, lo)
	if eq(p, v) {
		return true
	}
	for _, c := range t.byKey[key] {
		if c.ver <= lo {
			continue
		}
		if c.ver > hi {
			break
		}
		if eq(c.present, c.val) {
			return true
		}
	}
	return false
}

// countTimeline tracks one integer (a size or length) over instants.
type countTimeline struct {
	changes []change // val carries the count
	init    int
}

func (t *countTimeline) apply(ver uint64, count int) {
	t.changes = append(t.changes, change{ver: ver, val: count})
}

func (t *countTimeline) at(instant uint64) int {
	i := sort.Search(len(t.changes), func(i int) bool { return t.changes[i].ver > instant })
	if i == 0 {
		return t.init
	}
	return t.changes[i-1].val
}

func (t *countTimeline) matchesIn(lo, hi uint64, count int) bool {
	if t.at(lo) == count {
		return true
	}
	for _, c := range t.changes {
		if c.ver <= lo {
			continue
		}
		if c.ver > hi {
			break
		}
		if c.val == count {
			return true
		}
	}
	return false
}

// replayCtx joins the recorded history with the abstract op log: committed
// transactions in serialization order, each with its op record.
type replayCtx struct {
	log   *history.ExecLog
	order []history.TxExec
	recBy map[uint64]*OpRecord
}

func newReplayCtx(log *history.ExecLog, recs []OpRecord) *replayCtx {
	ctx := &replayCtx{log: log, order: log.SerializationOrder(),
		recBy: make(map[uint64]*OpRecord, len(recs))}
	for i := range recs {
		ctx.recBy[recs[i].TxID] = &recs[i]
	}
	return ctx
}

// txPair is one committed transaction joined with its abstract op record.
type txPair struct {
	ex  *history.TxExec
	rec *OpRecord
}

// partition splits the committed transactions, in serialization order, into
// updaters and read-only pairs, dropping transactions without op records
// (e.g. the final audit the workload runs itself).
func (c *replayCtx) partition() (updaters, readOnly []txPair) {
	for i := range c.order {
		ex := &c.order[i]
		rec := c.recBy[ex.ID]
		if rec == nil {
			continue
		}
		if ex.HasWrites {
			updaters = append(updaters, txPair{ex, rec})
		} else {
			readOnly = append(readOnly, txPair{ex, rec})
		}
	}
	return updaters, readOnly
}

// window returns the instants at which a read-only transaction's ops may
// have taken effect: classic and snapshot transactions serialize exactly at
// their recorded version; an elastic transaction's result is pinned by its
// deciding (final) read, so its window is that read's validity interval
// clamped below by the begin instant.
func (c *replayCtx) window(ex *history.TxExec) (lo, hi uint64) {
	if ex.Sem == core.Elastic {
		lo, hi = c.log.DecidingReadWindow(ex)
		if ex.BeginVer > lo {
			lo = ex.BeginVer
		}
		if hi < lo {
			hi = lo
		}
		return lo, hi
	}
	return ex.CommitVer, ex.CommitVer
}

func opErr(ex *history.TxExec, op Op, msg string, args ...any) error {
	return fmt.Errorf("tx %d (%s) %s(key=%d): %s",
		ex.ID, ex.Sem, op.Kind, op.Key, fmt.Sprintf(msg, args...))
}

// checkSetModel replays set add/remove results in serialization order and
// checks every read-only observation (contains, size, failed add/remove)
// against the membership timeline: the linearizability check of an
// intset-shaped workload. It returns the model's final membership so the
// caller can compare it with the live structure.
func checkSetModel(log *history.ExecLog, recs []OpRecord) (map[int]bool, error) {
	ctx := newReplayCtx(log, recs)
	members := make(map[int]bool)
	tl := newKeyTimeline(false, 0)
	sizes := &countTimeline{}
	size := 0

	updaters, readOnly := ctx.partition()
	for _, u := range updaters {
		ex := u.ex
		for _, op := range u.rec.Ops {
			switch op.Kind {
			case OpAdd:
				if !op.Bool {
					return nil, opErr(ex, op, "returned false yet wrote")
				}
				if members[op.Key] {
					return nil, opErr(ex, op, "inserted a key already present at instant %d", ex.CommitVer)
				}
				members[op.Key] = true
				size++
				tl.apply(op.Key, ex.CommitVer, true, 0)
				sizes.apply(ex.CommitVer, size)
			case OpRemove:
				if !op.Bool {
					return nil, opErr(ex, op, "returned false yet wrote")
				}
				if !members[op.Key] {
					return nil, opErr(ex, op, "removed a key absent at instant %d", ex.CommitVer)
				}
				delete(members, op.Key)
				size--
				tl.apply(op.Key, ex.CommitVer, false, 0)
				sizes.apply(ex.CommitVer, size)
			case OpAddIfAbsent:
				// Composition atomicity: an addIfAbsent that WROTE must
				// have observed, at its single commit instant, the witness
				// absent AND v absent — `members` is exactly the model
				// state just below this updater's instant.
				if !op.Bool {
					return nil, opErr(ex, op, "returned false yet wrote")
				}
				if op.Aux != 0 {
					return nil, opErr(ex, op, "found its witness yet inserted")
				}
				if members[op.Val] {
					return nil, opErr(ex, op, "witness %d present at instant %d, composition not atomic",
						op.Val, ex.CommitVer)
				}
				if members[op.Key] {
					return nil, opErr(ex, op, "inserted a key already present at instant %d", ex.CommitVer)
				}
				members[op.Key] = true
				size++
				tl.apply(op.Key, ex.CommitVer, true, 0)
				sizes.apply(ex.CommitVer, size)
			default:
				return nil, opErr(ex, op, "unexpected updater op")
			}
		}
	}
	for _, p := range readOnly {
		lo, hi := ctx.window(p.ex)
		for _, op := range p.rec.Ops {
			switch op.Kind {
			case OpAddIfAbsent:
				// Read-only outcome: either the witness was found, or it
				// was absent but v itself was present. Composed ops run
				// classic, so the window is one instant and BOTH halves
				// are checked there — a witness state and a v state that
				// never coexisted fail.
				if op.Bool {
					return nil, opErr(p.ex, op, "returned true without writing")
				}
				if op.Aux != 0 {
					if !tl.matchesIn(op.Val, lo, hi, true, 0, false) {
						return nil, opErr(p.ex, op, "witness %d never present in [%d,%d]", op.Val, lo, hi)
					}
					break
				}
				wPresent, _ := tl.at(op.Val, lo)
				vPresent, _ := tl.at(op.Key, lo)
				if wPresent || !vPresent {
					return nil, opErr(p.ex, op,
						"declined with witness %d absent: need v present & witness absent at %d (witness=%v, v=%v)",
						op.Val, lo, wPresent, vPresent)
				}
			case OpContains:
				if !tl.matchesIn(op.Key, lo, hi, op.Bool, 0, false) {
					return nil, opErr(p.ex, op, "observed %v, never true in [%d,%d]", op.Bool, lo, hi)
				}
			case OpAdd: // failed add: the key must have been present
				if op.Bool {
					return nil, opErr(p.ex, op, "returned true without writing")
				}
				if !tl.matchesIn(op.Key, lo, hi, true, 0, false) {
					return nil, opErr(p.ex, op, "failed but key never present in [%d,%d]", lo, hi)
				}
			case OpRemove: // failed remove: the key must have been absent
				if op.Bool {
					return nil, opErr(p.ex, op, "returned true without writing")
				}
				if !tl.matchesIn(op.Key, lo, hi, false, 0, false) {
					return nil, opErr(p.ex, op, "failed but key never absent in [%d,%d]", lo, hi)
				}
			case OpSize:
				if !sizes.matchesIn(lo, hi, op.Int) {
					return nil, opErr(p.ex, op, "observed size %d, never held in [%d,%d]", op.Int, lo, hi)
				}
			default:
				return nil, opErr(p.ex, op, "unexpected read-only op")
			}
		}
	}
	return members, nil
}

// checkMapModel is checkSetModel for put/delete/get/len with values; it
// returns the model's final key→value state.
func checkMapModel(log *history.ExecLog, recs []OpRecord) (map[int]int, error) {
	ctx := newReplayCtx(log, recs)
	vals := make(map[int]int)
	present := make(map[int]bool)
	tl := newKeyTimeline(false, 0)
	lens := &countTimeline{}
	n := 0

	updaters, readOnly := ctx.partition()
	for _, u := range updaters {
		ex := u.ex
		for _, op := range u.rec.Ops {
			switch op.Kind {
			case OpPut:
				inserted := !present[op.Key]
				if op.Bool != inserted {
					return nil, opErr(ex, op, "reported inserted=%v, model says %v at instant %d",
						op.Bool, inserted, ex.CommitVer)
				}
				present[op.Key] = true
				vals[op.Key] = op.Val
				if inserted {
					n++
					lens.apply(ex.CommitVer, n)
				}
				tl.apply(op.Key, ex.CommitVer, true, op.Val)
			case OpDelete:
				if !op.Bool {
					return nil, opErr(ex, op, "returned false yet wrote")
				}
				if !present[op.Key] {
					return nil, opErr(ex, op, "deleted a key absent at instant %d", ex.CommitVer)
				}
				delete(present, op.Key)
				delete(vals, op.Key)
				n--
				tl.apply(op.Key, ex.CommitVer, false, 0)
				lens.apply(ex.CommitVer, n)
			default:
				return nil, opErr(ex, op, "unexpected updater op")
			}
		}
	}
	for _, p := range readOnly {
		lo, hi := ctx.window(p.ex)
		for _, op := range p.rec.Ops {
			switch op.Kind {
			case OpGet:
				if !tl.matchesIn(op.Key, lo, hi, op.Bool, op.Int, true) {
					return nil, opErr(p.ex, op, "observed (found=%v,val=%d), never held in [%d,%d]",
						op.Bool, op.Int, lo, hi)
				}
			case OpDelete: // failed delete: key absent
				if op.Bool {
					return nil, opErr(p.ex, op, "returned true without writing")
				}
				if !tl.matchesIn(op.Key, lo, hi, false, 0, false) {
					return nil, opErr(p.ex, op, "failed but key never absent in [%d,%d]", lo, hi)
				}
			case OpLen:
				if !lens.matchesIn(lo, hi, op.Int) {
					return nil, opErr(p.ex, op, "observed len %d, never held in [%d,%d]", op.Int, lo, hi)
				}
			default:
				return nil, opErr(p.ex, op, "unexpected read-only op")
			}
		}
	}
	return vals, nil
}

// mapTimeline replays the committed put/delete updaters in serialization
// order into a per-key state timeline: the oracle the persist workload
// reloads its checkpoints against — tl.at(key, pinVersion) is the model's
// binding exactly at a checkpoint's pin instant. It assumes the
// records already passed checkMapModel (it replays without re-checking).
func mapTimeline(log *history.ExecLog, recs []OpRecord) *keyTimeline {
	ctx := newReplayCtx(log, recs)
	tl := newKeyTimeline(false, 0)
	updaters, _ := ctx.partition()
	for _, u := range updaters {
		for _, op := range u.rec.Ops {
			switch op.Kind {
			case OpPut:
				tl.apply(op.Key, u.ex.CommitVer, true, op.Val)
			case OpDelete:
				tl.apply(op.Key, u.ex.CommitVer, false, 0)
			}
		}
	}
	return tl
}

// checkQueueModel replays enq/deq in serialization order against a FIFO
// model (dequeues must pop the model's front, empty dequeues must happen
// when the model could be empty) and checks len observations. It returns
// the model's final contents oldest-first.
func checkQueueModel(log *history.ExecLog, recs []OpRecord) ([]int, error) {
	ctx := newReplayCtx(log, recs)
	var fifo []int
	lens := &countTimeline{}

	updaters, readOnly := ctx.partition()
	for _, u := range updaters {
		ex := u.ex
		for _, op := range u.rec.Ops {
			switch op.Kind {
			case OpEnq:
				fifo = append(fifo, op.Val)
				lens.apply(ex.CommitVer, len(fifo))
			case OpDeq:
				if !op.Bool {
					return nil, opErr(ex, op, "empty dequeue yet wrote")
				}
				if len(fifo) == 0 {
					return nil, opErr(ex, op, "dequeued %d from an empty model at instant %d",
						op.Int, ex.CommitVer)
				}
				if fifo[0] != op.Int {
					return nil, opErr(ex, op, "dequeued %d, FIFO front is %d at instant %d",
						op.Int, fifo[0], ex.CommitVer)
				}
				fifo = fifo[1:]
				lens.apply(ex.CommitVer, len(fifo))
			default:
				return nil, opErr(ex, op, "unexpected updater op")
			}
		}
	}
	for _, p := range readOnly {
		lo, hi := ctx.window(p.ex)
		for _, op := range p.rec.Ops {
			switch op.Kind {
			case OpDeq: // empty dequeue
				if op.Bool {
					return nil, opErr(p.ex, op, "returned ok without writing")
				}
				if !lens.matchesIn(lo, hi, 0) {
					return nil, opErr(p.ex, op, "observed empty but queue never empty in [%d,%d]", lo, hi)
				}
			case OpLen:
				if !lens.matchesIn(lo, hi, op.Int) {
					return nil, opErr(p.ex, op, "observed len %d, never held in [%d,%d]", op.Int, lo, hi)
				}
			default:
				return nil, opErr(p.ex, op, "unexpected read-only op")
			}
		}
	}
	return fifo, nil
}

// checkCellsModel replays raw-cell writes (last-writer-wins per cell) and
// checks every read observation — in read-only AND updater transactions —
// against the value timeline. It returns the final value of every written
// cell.
func checkCellsModel(log *history.ExecLog, recs []OpRecord) (map[int]int, error) {
	ctx := newReplayCtx(log, recs)
	tl := newKeyTimeline(true, 0) // cells exist from the start, value 0

	updaters, readOnly := ctx.partition()
	for _, u := range updaters {
		// Value-check the updater's reads BEFORE applying its writes: an
		// updater's validated reads see the state just below its commit
		// instant, never its own not-yet-applied installs.
		if err := checkUpdaterReads(ctx, tl, u); err != nil {
			return nil, err
		}
		for _, op := range u.rec.Ops {
			switch op.Kind {
			case OpWrite:
				tl.apply(op.Key, u.ex.CommitVer, true, op.Val)
			case OpRead: // checked above
			default:
				return nil, opErr(u.ex, op, "unexpected updater op")
			}
		}
	}
	for _, p := range readOnly {
		lo, hi := ctx.window(p.ex)
		// Elastic ops are recorded 1:1 with the transaction's reads, so
		// each op can be held to its own read's validity interval rather
		// than a transaction-wide window.
		reads := p.ex.PreSealReads
		zip := p.ex.Sem == core.Elastic && len(reads) == len(p.rec.Ops)
		for i, op := range p.rec.Ops {
			if op.Kind != OpRead {
				return nil, opErr(p.ex, op, "unexpected read-only op")
			}
			if p.ex.Sem == core.Elastic {
				// Elastic pieces serialize independently: each read must
				// hold at some instant of its own piece, not all at one.
				rlo, rhi := lo, hi
				if zip {
					rlo, rhi = ctx.log.ValidInterval(reads[i])
				}
				if !tl.matchesIn(op.Key, rlo, rhi, true, op.Int, true) {
					return nil, opErr(p.ex, op, "observed %d, never held in [%d,%d]", op.Int, rlo, rhi)
				}
				continue
			}
			if _, v := tl.at(op.Key, lo); v != op.Int {
				return nil, opErr(p.ex, op, "observed %d, model has %d at instant %d", op.Int, v, lo)
			}
		}
	}
	finals := make(map[int]int)
	for key, cs := range tl.byKey {
		finals[key] = cs[len(cs)-1].val
	}
	return finals, nil
}

// checkUpdaterReads value-checks the reads a committed UPDATER performed
// (the ROADMAP gap: read-only observations were model-checked, updater
// observations were not). The rules per semantics:
//
//   - a read of a cell the transaction itself wrote earlier in program
//     order returns the buffered value (read-your-writes) and is never
//     recorded by the runtime;
//   - classic updaters validate every read at commit, so each read must
//     equal the model state just below the commit instant (other writers
//     cannot share the instant on the same cell: they would hold its lock);
//   - elastic updaters only guarantee each pre-seal read within its own
//     validity interval (cut reads are not revalidated at commit), so each
//     recorded read is checked against its interval, exactly like the
//     read-only elastic path.
func checkUpdaterReads(ctx *replayCtx, tl *keyTimeline, u txPair) error {
	ex := u.ex
	// Recorded reads in program order: pre-seal reads are exactly the
	// reads before the first write, so concatenation preserves order.
	// Read-your-writes hits are answered from the write set and produce
	// no record, which is why they are skipped in the zip below.
	var reads []history.ReadObs
	if ex.Sem == core.Elastic {
		reads = make([]history.ReadObs, 0, len(ex.PreSealReads)+len(ex.PostSealReads))
		reads = append(reads, ex.PreSealReads...)
		reads = append(reads, ex.PostSealReads...)
	}
	ri := 0
	pending := make(map[int]int)
	for _, op := range u.rec.Ops {
		switch op.Kind {
		case OpWrite:
			pending[op.Key] = op.Val
		case OpRead:
			if v, own := pending[op.Key]; own {
				if op.Int != v {
					return opErr(ex, op, "read-your-writes observed %d, buffered %d", op.Int, v)
				}
				continue
			}
			if ex.Sem == core.Elastic {
				if ri >= len(reads) {
					return opErr(ex, op, "no recorded read to pin the observation")
				}
				lo, hi := ctx.log.ValidInterval(reads[ri])
				ri++
				if !tl.matchesIn(op.Key, lo, hi, true, op.Int, true) {
					return opErr(ex, op, "updater observed %d, never held in [%d,%d]", op.Int, lo, hi)
				}
				continue
			}
			if _, v := tl.at(op.Key, ex.CommitVer-1); v != op.Int {
				return opErr(ex, op, "updater observed %d, model has %d just below instant %d",
					op.Int, v, ex.CommitVer)
			}
		}
	}
	return nil
}
