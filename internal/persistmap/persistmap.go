// Package persistmap is the persistent-map layer over txstruct.TreeMapOf —
// the second ROADMAP workload unblocked by snapshot pinning: a live
// transactional ordered map that can be backed up while writers keep
// committing, and restored copy-on-write without disturbing readers pinned
// to older versions.
//
// A Backup is built under one SnapshotPin: the pin freezes a committed
// version of the whole TM, so the backup walks the tree in bounded CHUNKS
// — one short snapshot transaction per chunk, resuming after the last key
// — and still captures a single consistent cut, no matter how many
// updates commit between chunks. That is the property eager version
// reclamation denied: before pin-aware retirement, a reader slower than a
// few commits lost the versions it was iterating (AbortSnapshotTooOld);
// with the pin, "snapshot iteration makes cheap backups" holds at any
// size. Restore brings the live tree to the backup's state in bounded
// chunked transactions (RestoreFullTx), so recovery never pays one
// map-sized commit; concurrent pinned readers keep their old cut
// throughout.
//
// Durability has one path. A Store writes full checkpoints (store.go),
// and the write-ahead log (wal.go and the walsync group-commit daemon)
// streams every committed write set into CRC'd segment files. The
// checkpoint cycle is pin, BackupAt, WriteFull, WAL.TrimTo, release; the
// superseded full may then be removed. Store.Replay recovers newest full
// checkpoint + WAL tail, so recovery loses nothing past the last acked
// commit.
package persistmap

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/txstruct"
)

// DefaultChunk is how many bindings one backup transaction copies. Small
// enough that each transaction's read set stays cheap, large enough that
// chunking overhead (one pinned transaction per chunk) is negligible.
const DefaultChunk = 256

// Map is a transactional ordered map with consistent backup and restore.
// All access goes through transactions of the TM it was created on; the
// map itself is txstruct.TreeMapOf, re-exposed so callers compose map
// operations with their own transactional state.
type Map[V any] struct {
	tm   *core.TM
	tree *txstruct.TreeMapOf[V]
	// wal, when attached, receives every committed write set of the map
	// (see AttachWAL); nil keeps the map checkpoint-only.
	wal *WAL[V]
	// chunk is the backup chunk size; tests shrink it to force many
	// chunks over small maps.
	chunk int
	// testHookChunkAttempt, when set, runs after every binding a backup
	// chunk accumulates (inside the pinned transaction). Tests use it to
	// force deterministic mid-walk retries — the shape in which a
	// non-reset accumulator would duplicate the aborted attempt's
	// bindings; nil in production.
	testHookChunkAttempt func(tx *core.Tx)
}

// New builds an empty persistent map bound to tm.
func New[V any](tm *core.TM) *Map[V] {
	return &Map[V]{tm: tm, tree: txstruct.NewTreeMapOf[V](tm, core.Snapshot), chunk: DefaultChunk}
}

// Tree returns the underlying transactional tree for composed use inside
// the caller's own transactions.
func (m *Map[V]) Tree() *txstruct.TreeMapOf[V] { return m.tree }

// AttachWAL routes every subsequent committed write set of the map into
// w (opened on the same Store the map checkpoints into). With durable
// true, w.Ack is installed as the TM's durable-ack barrier: Atomically
// returns to an updating committer only after its WAL record is fsynced
// — the group-commit guarantee. With durable false the log is written
// asynchronously (commits return at memory speed, a crash may lose the
// un-synced tail, replay still recovers a clean prefix). Attach during
// setup, before concurrent use; restore and replay paths bypass the WAL
// by design (their effects are already durable, respectively being made
// durable by the source they restore from).
//
// Note durable mode installs the barrier TM-wide: every update commit on
// the TM waits on the WAL, and those that did not touch this map (no
// logged ops) pass through without blocking.
//
// Attaching binds the WAL to this map's TM: commit records are stamped
// with that TM's clock and the durable-ack barrier lives on it, so one
// WAL cannot serve maps on two different TMs (shard partitions run one
// WAL per clock domain).
func (m *Map[V]) AttachWAL(w *WAL[V], durable bool) {
	if w.tm != nil && w.tm != m.tm {
		panic("persistmap: WAL is already attached to a map on a different TM")
	}
	w.tm = m.tm
	m.wal = w
	w.durable = durable
	if durable {
		m.tm.SetDurableAck(w.Ack)
	}
}

// DetachWAL removes the attached WAL and, in durable mode, the TM's
// durable-ack barrier: subsequent commits return at memory speed and are
// not logged. This is the EXPLICIT degradation path after durability is
// lost (WALOptions.OnDurabilityLost / WAL.Err): a poisoned WAL fails
// every durable commit, and the owner chooses between stopping and
// serving on without the durability promise — this makes that choice a
// visible API call instead of an accident. Call it quiesced (no commits
// in flight), like AttachWAL.
func (m *Map[V]) DetachWAL() {
	if m.wal == nil {
		return
	}
	if m.wal.durable {
		m.tm.SetDurableAck(nil)
	}
	m.wal.tm = nil
	m.wal = nil
}

// owns panics when tx was begun on a different TM than the map's own.
// With several TMs in one process (internal/shard partitions), a foreign
// transaction would stamp WAL records with the wrong clock's versions
// and slip past the durable-ack barrier installed on m.tm — a recovery
// corruption that surfaces only after a crash. Misuse panics, like the
// core runtime's own.
func (m *Map[V]) owns(tx *core.Tx) {
	if tx.TM() != m.tm {
		panic("persistmap: transaction belongs to a different TM than this map")
	}
}

// PutTx binds key to val inside the caller's transaction, logging the
// write to the attached WAL; it reports whether the key was new. All
// writes that must survive a crash go through PutTx/DeleteTx (Put and
// Delete are their Atomically conveniences).
func (m *Map[V]) PutTx(tx *core.Tx, key int, val V) bool {
	m.owns(tx)
	inserted := m.tree.PutTx(tx, key, val)
	if m.wal != nil {
		m.wal.logOp(tx, key, val, false)
	}
	return inserted
}

// DeleteTx unbinds key inside the caller's transaction, logging the
// deletion to the attached WAL; it reports whether the key was present.
// An absent key mutates nothing and logs nothing.
func (m *Map[V]) DeleteTx(tx *core.Tx, key int) bool {
	m.owns(tx)
	removed := m.tree.DeleteTx(tx, key)
	if removed && m.wal != nil {
		var zero V
		m.wal.logOp(tx, key, zero, true)
	}
	return removed
}

// GetTx returns the value bound to key inside the caller's transaction.
func (m *Map[V]) GetTx(tx *core.Tx, key int) (V, bool) {
	m.owns(tx)
	return m.tree.GetTx(tx, key)
}

// Put atomically binds key to val; it reports whether the key was new.
func (m *Map[V]) Put(key int, val V) (inserted bool, err error) {
	err = m.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		inserted = m.PutTx(tx, key, val)
		return nil
	})
	return inserted, err
}

// Get returns the value bound to key.
func (m *Map[V]) Get(key int) (V, bool, error) { return m.tree.Get(key) }

// Delete atomically unbinds key; it reports whether the key was present.
func (m *Map[V]) Delete(key int) (removed bool, err error) {
	err = m.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		removed = m.DeleteTx(tx, key)
		return nil
	})
	return removed, err
}

// Len returns the number of bindings as one consistent snapshot.
func (m *Map[V]) Len() (int, error) { return m.tree.Len() }

// Backup captures one consistent cut of the map: the committed state as
// of the moment the call pins the TM's version, regardless of concurrent
// updates during the copy. The walk is chunked — many short pinned
// snapshot transactions instead of one long one — so a large backup never
// holds a transaction open across the whole scan; writers are never
// aborted nor blocked by it (snapshot reads interfere with nothing).
func (m *Map[V]) Backup() (*Backup[V], error) {
	pin, err := m.tm.PinSnapshot()
	if err != nil {
		return nil, err
	}
	defer pin.Release()
	return m.BackupAt(pin)
}

// BackupAt is Backup at a pin the caller holds (and keeps holding): the
// checkpoint idiom, where the same pin's version is what the WAL is then
// trimmed to. The pin must belong to the map's TM and stays valid after
// the call.
func (m *Map[V]) BackupAt(pin *core.SnapshotPin) (*Backup[V], error) {
	b := &Backup[V]{Version: pin.Version()}
	lo := math.MinInt
	var chunkKeys []int
	var chunkVals []V
	var last int
	var more bool
	for {
		// The closure may run more than once (a snapshot read can abort on
		// lock contention and retry), so the chunk accumulates into
		// buffers reset at the top of every attempt and lands in the
		// backup only after the transaction committed — the same idiom as
		// TreeMapOf.Keys. Appending directly from the range callback would
		// duplicate the aborted attempt's bindings.
		err := pin.Atomically(func(tx *core.Tx) error {
			chunkKeys, chunkVals = chunkKeys[:0], chunkVals[:0]
			more = false
			m.tree.RangeTx(tx, lo, math.MaxInt, func(k int, v V) bool {
				if len(chunkKeys) == m.chunk {
					more = true
					return false
				}
				chunkKeys = append(chunkKeys, k)
				chunkVals = append(chunkVals, v)
				last = k
				if m.testHookChunkAttempt != nil {
					m.testHookChunkAttempt(tx)
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		b.keys = append(b.keys, chunkKeys...)
		b.vals = append(b.vals, chunkVals...)
		if !more || last == math.MaxInt {
			return b, nil
		}
		lo = last + 1
	}
}

// Restore replaces the map's contents with the backup's. It is
// RestoreFullTx: the live tree is brought to the backup's state in bounded
// transactions rather than one map-sized one. The backup remains valid and
// can be restored again (or into another Map of the same value type). For
// the old single-transaction atomic swap, compose RestoreTx into your own
// transaction.
func (m *Map[V]) Restore(b *Backup[V]) error {
	return m.RestoreFullTx(b)
}

// RestoreFullTx brings the LIVE map to exactly the backup's state in
// bounded transactions — at most chunk bindings examined or written per
// transaction — instead of rebuilding the whole tree inside one
// transaction whose read and write sets grow with the map (the PR 5
// restore bottleneck: one giant commit that validates and installs every
// binding at once). Two chunked passes run: a prune pass deletes live keys
// the backup does not bind, then an install pass puts every backup
// binding. Each transaction is individually atomic — a concurrent reader
// sees a consistent map whose every binding is either the pre-restore or
// the backup value, never a torn record — but the restore as a whole is
// not one atomic cut; callers needing that compose RestoreTx instead.
// Readers pinned before the restore keep their old versions throughout.
func (m *Map[V]) RestoreFullTx(b *Backup[V]) error {
	// Prune pass: chunked walk of the live tree, deleting keys absent from
	// the backup. The walk examines at most chunk live keys per
	// transaction (bounding the read set, not just the deletions) and
	// resumes after the last examined key. Candidates accumulate into a
	// buffer reset at the top of every attempt — the BackupAt retry idiom
	// — and are deleted inside the same transaction that collected them.
	lo := math.MinInt
	var doomed []int
	var last int
	var more bool
	for {
		err := m.tm.Atomically(core.Classic, func(tx *core.Tx) error {
			doomed = doomed[:0]
			more = false
			seen := 0
			m.tree.RangeTx(tx, lo, math.MaxInt, func(k int, _ V) bool {
				if seen == m.chunk {
					more = true
					return false
				}
				seen++
				last = k
				if _, ok := b.Get(k); !ok {
					doomed = append(doomed, k)
				}
				if m.testHookChunkAttempt != nil {
					m.testHookChunkAttempt(tx)
				}
				return true
			})
			for _, k := range doomed {
				m.tree.DeleteTx(tx, k)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !more || last == math.MaxInt {
			break
		}
		lo = last + 1
	}
	// Install pass: the backup's bindings land chunk by chunk. PutTx
	// overwrites in place, so bindings already at their backup value are
	// rewritten (a bounded cost) rather than read-compared.
	for start := 0; start < len(b.keys); start += m.chunk {
		end := min(start+m.chunk, len(b.keys))
		err := m.tm.Atomically(core.Classic, func(tx *core.Tx) error {
			for i := start; i < end; i++ {
				m.tree.PutTx(tx, b.keys[i], b.vals[i])
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// applyOps re-applies a redo sequence — keys[i] put to vals[i], or
// deleted when dels[i] — to the LIVE map in bounded transactions of at
// most chunk operations each. It is a blind apply: it does not require
// the live state to be any particular version, which is exactly what
// write-ahead-log replay needs (each WAL record is a committed write set
// re-applied on top of whatever checkpoint recovery started from).
// Atomicity is per chunk, as with RestoreFullTx.
func (m *Map[V]) applyOps(keys []int, vals []V, dels []bool) error {
	for start := 0; start < len(keys); start += m.chunk {
		end := min(start+m.chunk, len(keys))
		err := m.tm.Atomically(core.Classic, func(tx *core.Tx) error {
			for i := start; i < end; i++ {
				if dels[i] {
					m.tree.DeleteTx(tx, keys[i])
				} else {
					m.tree.PutTx(tx, keys[i], vals[i])
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RestoreTx rebuilds the map from the backup inside the caller's
// transaction — the one-atomic-cut variant, composing the swap with other
// transactional state. The whole backup lands in this single transaction,
// so its cost grows with the backup; prefer Restore for bulk recovery.
func (m *Map[V]) RestoreTx(tx *core.Tx, b *Backup[V]) {
	m.tree.ReplaceAllTx(tx, b.keys, b.vals)
}

// Backup is an immutable point-in-time copy of a Map: plain sorted
// parallel slices, cheap to keep and re-apply. It is NOT
// transactional state — reading it needs no transaction.
type Backup[V any] struct {
	// Version is the pinned TM version the backup captured.
	Version uint64
	keys    []int
	vals    []V
}

// Len returns the number of bindings in the backup.
func (b *Backup[V]) Len() int { return len(b.keys) }

// Get returns the value bound to key in the backup.
func (b *Backup[V]) Get(key int) (V, bool) {
	i := sort.SearchInts(b.keys, key)
	if i < len(b.keys) && b.keys[i] == key {
		return b.vals[i], true
	}
	var zero V
	return zero, false
}

// Ascend visits the backup's bindings in ascending key order, stopping
// when fn returns false.
func (b *Backup[V]) Ascend(fn func(key int, val V) bool) {
	for i := range b.keys {
		if !fn(b.keys[i], b.vals[i]) {
			return
		}
	}
}
