package storm

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/persistmap"
	"repro/internal/persistmap/walsync"
)

// persistWorkload is the crash-recovery storm: seeded map mutations (the
// treemap workload's op mix, checked by the same cross-semantics model)
// interleaved with the store's checkpoint cycle — pin, copy at the pin,
// write a full checkpoint to a scratch directory on real disk, trim the
// WAL to it, release. The durability check then plays the crash: every
// full checkpoint is reloaded from the FILES into a FRESH TM (nothing
// shared with the storm's runtime but the bytes on disk) and must be
// binding-for-binding the model's state at exactly that checkpoint's pin
// version. A checkpoint that tore a cut or lost a record fails the same
// harness verdict that catches opacity violations — durability inherits
// the storm's oracle instead of ad-hoc assertions.
type persistWorkload struct {
	tm   *core.TM
	m    *persistmap.Map[int]
	keys int
	dir  string

	// The write-ahead half of always-on durability: every mutation the
	// storm commits streams through the attached WAL in durable mode, so
	// an exec returns only after its record is fsynced (group-committed
	// with whatever other workers were committing). The check's third
	// layer kills the daemon mid-batch and audits that recovery restores
	// exactly the acked commit prefix.
	wal *persistmap.WAL[int]
	// crashArm arms the BeforeSync hook; crashCalls counts armed batches
	// (daemon goroutine only) so the kill fires even if group commit
	// never forms a >= 2-record batch.
	crashArm   atomic.Bool
	crashCalls int
	// Burst-audit results, filled by check for notes.
	walAcked, walLost int

	// Checkpoint cycles serialize here, as one checkpointer would run
	// them; map mutations never touch the mutex.
	mu    sync.Mutex
	store *persistmap.Store[int]
	fulls []persistFull // written checkpoints, oldest first
}

// persistFull is one written full checkpoint: what the durability check
// reloads and holds to the model.
type persistFull struct {
	version uint64
	path    string
}

func newPersistWorkload(tm *core.TM, keys int) (*persistWorkload, error) {
	dir, err := os.MkdirTemp("", "storm-persist-")
	if err != nil {
		return nil, err
	}
	store, err := persistmap.NewStore(dir, persistmap.IntCodec{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w := &persistWorkload{tm: tm, m: persistmap.New[int](tm), keys: keys, dir: dir, store: store}
	wal, err := store.OpenWAL(persistmap.WALOptions{
		// The injected kill: once armed, crash on the first batch that
		// actually grouped >= 2 committers — or unconditionally after 50
		// armed batches, so a run whose group commit never forms a batch
		// still exercises the crash path.
		BeforeSync: func(records int) bool {
			if !w.crashArm.Load() {
				return false
			}
			w.crashCalls++
			return records >= 2 || w.crashCalls > 50
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w.wal = wal
	w.m.AttachWAL(wal, true)
	return w, nil
}

func (w *persistWorkload) name() string { return "persist" }

// cleanup closes the WAL and removes the scratch directory. Idempotent;
// finishReport runs it after every storm (check included, and the error
// paths check never sees), and the shrinker's replay-capability probe
// runs it on workloads it only constructed.
func (w *persistWorkload) cleanup() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.wal != nil {
		// ErrClosed after an injected crash is the expected verdict.
		_ = w.wal.Close()
		w.wal = nil
	}
	os.RemoveAll(w.dir)
}

func (w *persistWorkload) prepopulate(rng *rand.Rand) ([]OpRecord, error) {
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

func (w *persistWorkload) step(rng *rand.Rand, mix Mix) (OpRecord, error) {
	roll := rng.Intn(100)
	key := rng.Intn(w.keys)
	classicOnly := []core.Semantics{core.Classic}
	reads := []core.Semantics{core.Classic, core.Snapshot}
	switch {
	case roll < 30:
		return w.exec(mix.pick(rng, classicOnly), Op{Kind: OpPut, Key: key, Val: rng.Intn(1 << 16)})
	case roll < 52:
		return w.exec(mix.pick(rng, classicOnly), Op{Kind: OpDelete, Key: key})
	case roll < 82:
		return w.exec(mix.pick(rng, reads), Op{Kind: OpGet, Key: key})
	case roll < 92:
		return w.exec(mix.pick(rng, reads), Op{Kind: OpLen})
	default:
		// One checkpoint cycle. It spans many snapshot transactions and
		// writes files, but serializes no abstract map operation, so
		// it is recorded with TxID 0 — the checker never joins it; only
		// the seeded digest and the op count see it.
		if err := w.backupCycle(); err != nil {
			return OpRecord{}, err
		}
		return OpRecord{Sem: core.Snapshot, Ops: []Op{{Kind: OpBackup}}}, nil
	}
}

func (w *persistWorkload) exec(sem core.Semantics, op Op) (OpRecord, error) {
	tree := w.m.Tree()
	var txid uint64
	err := w.tm.Atomically(sem, func(tx *core.Tx) error {
		txid = tx.ID()
		switch op.Kind {
		case OpPut:
			// Mutations go through the Map wrappers so every committed
			// write set is WAL-logged; the durable ack means this
			// Atomically returns only once the record is fsynced.
			op.Bool = w.m.PutTx(tx, op.Key, op.Val)
		case OpDelete:
			op.Bool = w.m.DeleteTx(tx, op.Key)
		case OpGet:
			v, found := tree.GetTx(tx, op.Key)
			op.Bool = found
			if found {
				op.Int = v
			}
		case OpLen:
			op.Int = tree.LenTx(tx)
		}
		return nil
	})
	return OpRecord{TxID: txid, Sem: sem, Ops: []Op{op}}, err
}

// backupCycle is one checkpoint cycle, the one the store runs: pin, copy
// the map at the pin, write the full checkpoint, trim the WAL to its
// version, release. No pin outlives the cycle. A cycle whose pin sees no
// commit since the last checkpoint writes nothing: that checkpoint
// already holds this cut.
func (w *persistWorkload) backupCycle() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	pin, err := w.tm.PinSnapshot()
	if err != nil {
		return err
	}
	defer pin.Release()
	if n := len(w.fulls); n > 0 && w.fulls[n-1].version == pin.Version() {
		return nil
	}
	b, err := w.m.BackupAt(pin)
	if err != nil {
		return err
	}
	path, err := w.store.WriteFull(b)
	if err != nil {
		return err
	}
	// The checkpoint covers every commit at or below its pin version, so
	// WAL segments whose records are all inside it are redundant history.
	if _, err := w.wal.TrimTo(b.Version); err != nil {
		return err
	}
	w.fulls = append(w.fulls, persistFull{version: b.Version, path: path})
	return nil
}

func (w *persistWorkload) check(log *history.ExecLog, recs []OpRecord) error {
	// Layer 1: the live map's cross-semantics model check (identical to
	// the treemap workload's oracle).
	vals, err := checkMapModel(log, recs)
	if err != nil {
		return err
	}
	live := make(map[int]int)
	if err := w.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		clear(live)
		w.m.Tree().AscendTx(tx, func(k, v int) bool {
			live[k] = v
			return true
		})
		return nil
	}); err != nil {
		return err
	}
	if len(live) != len(vals) {
		return fmt.Errorf("persist: final size %d, model has %d", len(live), len(vals))
	}
	for k, v := range vals {
		if lv, ok := live[k]; !ok || lv != v {
			return fmt.Errorf("persist: final key %d = (%d,%v), model has %d", k, lv, ok, v)
		}
	}

	// Layer 2: durability. Every full checkpoint reloads from disk into a
	// FRESH TM and must equal the model's state at its pin version.
	if len(w.fulls) < 2 {
		return fmt.Errorf("persist: vacuous run: %d full checkpoint(s) written, want at least 2", len(w.fulls))
	}
	tl := mapTimeline(log, recs)
	for i, f := range w.fulls {
		b, err := w.store.ReadFull(f.path)
		if err != nil {
			return fmt.Errorf("persist: reload of checkpoint %d (version %d): %w", i, f.version, err)
		}
		if b.Version != f.version {
			return fmt.Errorf("persist: checkpoint %d reloaded at version %d, want %d", i, b.Version, f.version)
		}
		freshTM := core.New()
		fresh := persistmap.New[int](freshTM)
		if err := fresh.Restore(b); err != nil {
			return fmt.Errorf("persist: restore of checkpoint %d into a fresh TM: %w", i, err)
		}
		reloaded := make(map[int]int)
		if err := freshTM.Atomically(core.Snapshot, func(tx *core.Tx) error {
			clear(reloaded)
			fresh.Tree().AscendTx(tx, func(k, v int) bool {
				reloaded[k] = v
				return true
			})
			return nil
		}); err != nil {
			return err
		}
		count := 0
		for k := 0; k < w.keys; k++ {
			present, val := tl.at(k, f.version)
			rv, ok := reloaded[k]
			if ok != present || (present && rv != val) {
				return fmt.Errorf("persist: checkpoint %d (version %d) key %d reloaded as (%d,%v), model has (%d,%v)",
					i, f.version, k, rv, ok, val, present)
			}
			if present {
				count++
			}
		}
		if len(reloaded) != count {
			return fmt.Errorf("persist: checkpoint %d (version %d) reloaded %d bindings, model has %d",
				i, f.version, len(reloaded), count)
		}
	}

	// Layer 3: write-ahead durability under a mid-batch kill. A burst of
	// concurrent durable committers hammers sentinel keys while the
	// BeforeSync hook crashes the group-commit daemon mid-batch; recovery
	// must then restore exactly the acked commit prefix — every
	// acknowledged write present, every unacknowledged one absent.
	return w.checkWALCrash(vals)
}

// checkWALCrash is the persist storm's third layer. Burst committers use
// keys ABOVE the storm's key range and values above the storm's value
// range, so the expected recovered state factors cleanly: the model's
// final bindings for storm keys (all of whose commits were durably
// acked) overlaid with each goroutine's acked burst prefix (keys are
// disjoint per goroutine, so per-key redo order is its program order).
func (w *persistWorkload) checkWALCrash(vals map[int]int) error {
	const (
		burstWorkers  = 8
		burstKeysEach = 4
		phaseAOps     = 16 // pre-arm: must all ack
		phaseBOps     = 48 // armed: the kill lands somewhere in here
		sentinelBase  = 1 << 20
	)
	type burstOp struct {
		key, val int
		del      bool
		acked    bool
	}
	ops := make([][]burstOp, burstWorkers)
	errs := make([]error, burstWorkers)
	var wg, preArm sync.WaitGroup
	preArm.Add(burstWorkers)
	armed := make(chan struct{})
	for g := 0; g < burstWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := w.keys + g*burstKeysEach
			run := func(i int) (burstOp, error) {
				op := burstOp{
					key: base + i%burstKeysEach,
					val: sentinelBase + g*(phaseAOps+phaseBOps) + i,
					del: i%5 == 4,
				}
				err := w.tm.Atomically(core.Classic, func(tx *core.Tx) error {
					if op.del {
						w.m.DeleteTx(tx, op.key)
					} else {
						w.m.PutTx(tx, op.key, op.val)
					}
					return nil
				})
				op.acked = err == nil
				return op, err
			}
			for i := 0; i < phaseAOps; i++ {
				op, err := run(i)
				if err != nil {
					errs[g] = fmt.Errorf("persist: pre-arm burst op %d: %w", i, err)
					preArm.Done()
					return
				}
				ops[g] = append(ops[g], op)
			}
			preArm.Done()
			<-armed
			for i := phaseAOps; i < phaseAOps+phaseBOps; i++ {
				op, err := run(i)
				ops[g] = append(ops[g], op)
				if err != nil {
					// The commit's memory effect stands; durability was
					// refused. Everything after the kill fails the same
					// way, so the goroutine's acked set is a prefix.
					if !errors.Is(err, walsync.ErrClosed) {
						errs[g] = fmt.Errorf("persist: burst op %d failed with %v, want walsync.ErrClosed", i, err)
					}
					return
				}
			}
		}(g)
	}
	preArm.Wait()
	w.crashArm.Store(true)
	close(armed)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	expect := make(map[int]int, len(vals))
	for k, v := range vals {
		expect[k] = v
	}
	acked, lost := 0, 0
	for _, gops := range ops {
		for _, op := range gops {
			if !op.acked {
				lost++
				continue
			}
			acked++
			if op.del {
				delete(expect, op.key)
			} else {
				expect[op.key] = op.val
			}
		}
	}
	if lost == 0 {
		return fmt.Errorf("persist: crash audit vacuous: the injected kill never fired (%d burst ops acked)", acked)
	}
	w.walAcked, w.walLost = acked, lost

	// Recovery: newest full checkpoint + WAL tail into a FRESH TM,
	// sharing nothing with the storm's runtime but the bytes on disk.
	rs, err := persistmap.NewStore(w.dir, persistmap.IntCodec{})
	if err != nil {
		return err
	}
	freshTM := core.New()
	fresh := persistmap.New[int](freshTM)
	if _, err := rs.Replay(fresh); err != nil {
		return fmt.Errorf("persist: WAL replay after injected crash: %w", err)
	}
	recovered := make(map[int]int)
	if err := freshTM.Atomically(core.Snapshot, func(tx *core.Tx) error {
		clear(recovered)
		fresh.Tree().AscendTx(tx, func(k, v int) bool {
			recovered[k] = v
			return true
		})
		return nil
	}); err != nil {
		return err
	}
	for k, v := range expect {
		rv, ok := recovered[k]
		if !ok || rv != v {
			return fmt.Errorf("persist: crash recovery key %d = (%d,%v), acked timeline has %d", k, rv, ok, v)
		}
	}
	if len(recovered) != len(expect) {
		// More bindings than the acked timeline: an unacked write (or a
		// write the acked timeline deleted) survived the crash.
		for k, v := range recovered {
			if _, ok := expect[k]; !ok {
				return fmt.Errorf("persist: crash recovery resurrected key %d = %d, which no acked commit left bound", k, v)
			}
		}
		return fmt.Errorf("persist: crash recovery has %d bindings, acked timeline has %d", len(recovered), len(expect))
	}
	return nil
}

// notes reports the checkpoint and WAL shape for the storm report.
func (w *persistWorkload) notes() []string {
	notes := []string{fmt.Sprintf("checkpoints: %d full(s) written and reloaded", len(w.fulls))}
	if w.wal != nil {
		st := w.wal.Stats()
		group := float64(0)
		if st.Batches > 0 {
			group = float64(st.Records) / float64(st.Batches)
		}
		notes = append(notes, fmt.Sprintf("wal: %d record(s) in %d fsync batch(es) (avg %.1f, max %d), %d segment(s); crash audit: %d acked / %d lost",
			st.Records, st.Batches, group, st.MaxBatch, st.Segments, w.walAcked, w.walLost))
	}
	return notes
}
