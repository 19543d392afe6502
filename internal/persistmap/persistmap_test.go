package persistmap

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func TestBackupRestoreRoundTrip(t *testing.T) {
	tm := core.New()
	m := New[int](tm)
	for k := 0; k < 100; k += 2 {
		if _, err := m.Put(k, k*k); err != nil {
			t.Fatal(err)
		}
	}
	b, err := m.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 50 {
		t.Fatalf("backup holds %d bindings, want 50", b.Len())
	}
	if v, ok := b.Get(42); !ok || v != 42*42 {
		t.Fatalf("backup Get(42) = (%d,%v)", v, ok)
	}
	if _, ok := b.Get(43); ok {
		t.Fatal("backup Get(43) found an absent key")
	}
	// Diverge the live map, then restore.
	for k := 0; k < 100; k++ {
		if _, err := m.Put(k, -1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Restore(b); err != nil {
		t.Fatal(err)
	}
	n, err := m.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("restored len %d, want 50", n)
	}
	for k := 0; k < 100; k += 2 {
		v, ok, err := m.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != k*k {
			t.Fatalf("restored Get(%d) = (%d,%v), want %d", k, v, ok, k*k)
		}
	}
	if _, ok, _ := m.Get(1); ok {
		t.Fatal("restored map holds a key the backup did not")
	}
}

// TestBackupWhileWriting is the package's reason to exist: a CHUNKED
// backup (chunk size 8, forcing dozens of pinned transactions) taken
// while 8 writers churn the map must capture exactly the state committed
// when the backup began — a single consistent cut across all chunks. The
// pre-backup state is tagged so any leakage of concurrent writes into the
// backup is detected by value. Run with -race to put the pinned chunk
// walks under the detector against record recycling.
func TestBackupWhileWriting(t *testing.T) {
	const (
		baseKeys = 200
		writers  = 8
	)
	tm := core.New()
	m := New[int](tm)
	m.chunk = 8
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		for k := 0; k < baseKeys; k++ {
			m.tree.PutTx(tx, k, 7000+k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; !stop.Load(); i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int(rng % (2 * baseKeys))
				if i%4 == 0 {
					_, _ = m.Delete(k)
				} else {
					_, _ = m.Put(k, -i) // never a 7000-tagged value
				}
			}
		}(w)
	}

	for round := 0; round < 20; round++ {
		b, err := m.Backup()
		if err != nil {
			t.Fatal(err)
		}
		// Every captured binding must carry a value some committed state
		// held; 7000-tagged bindings must be self-consistent, and keys
		// must ascend strictly (one cut, no duplicated or reordered
		// chunk seams).
		prev := -1
		b.Ascend(func(k, v int) bool {
			if k <= prev {
				t.Errorf("round %d: backup keys out of order: %d after %d", round, k, prev)
				return false
			}
			prev = k
			if v >= 7000 && v != 7000+k {
				t.Errorf("round %d: key %d carries tagged value %d, want %d", round, k, v, 7000+k)
				return false
			}
			return true
		})
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := tm.Stats().Aborts[core.AbortSnapshotTooOld]; n != 0 {
		t.Fatalf("backup chunks lost their pinned version %d time(s)", n)
	}

	// With writers quiesced, a backup equals the live state and survives a
	// divergence + restore round trip.
	b, err := m.Backup()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2*baseKeys; k++ {
		_, _ = m.Delete(k)
	}
	if err := m.Restore(b); err != nil {
		t.Fatal(err)
	}
	n, err := m.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != b.Len() {
		t.Fatalf("restored len %d, backup %d", n, b.Len())
	}
}

// abortHappyCM aborts the arbitrating transaction on every conflict, so
// any lock encountered past the spin budget forces a retry — the
// adversarial schedule for closure idempotency.
type abortHappyCM struct{}

func (abortHappyCM) Arbitrate(_, _ *core.Tx, _ int) core.Decision { return core.DecisionAbortSelf }
func (abortHappyCM) OnCommit(*core.Tx)                            {}
func (abortHappyCM) OnAbort(*core.Tx)                             {}

// TestBackupRetriesDontDuplicate is the regression fence for the
// chunk-accumulation bug: backup chunks whose snapshot transactions abort
// and retry (forced here by a zero spin budget and an abort-happy
// contention manager under writer pressure) must not duplicate bindings —
// every backup stays strictly ascending with at most one entry per key.
func TestBackupRetriesDontDuplicate(t *testing.T) {
	const baseKeys = 96
	tm := core.New(core.WithSpinBudget(0), core.WithContentionManager(abortHappyCM{}))
	m := New[int](tm)
	m.chunk = 4
	for k := 0; k < baseKeys; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				_, _ = m.Put(int(rng%baseKeys), int(rng))
			}
		}(w)
	}
	calls := 0
	// Force a deterministic MID-WALK retry of every chunk's first attempt,
	// after it has accumulated some (but not all) bindings: without the
	// per-attempt reset the retried attempt re-appends them.
	m.testHookChunkAttempt = func(tx *core.Tx) {
		if tx.Attempt() == 1 {
			calls++
			if calls%2 == 0 {
				tx.Restart()
			}
		}
	}
	aborts0 := tm.Stats().TotalAborts()
	for round := 0; round < 30; round++ {
		b, err := m.Backup()
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != baseKeys {
			t.Fatalf("round %d: backup holds %d bindings, want %d (duplicates or drops)", round, b.Len(), baseKeys)
		}
		prev := -1
		b.Ascend(func(k, _ int) bool {
			if k <= prev {
				t.Errorf("round %d: backup keys not strictly ascending: %d after %d", round, k, prev)
				return false
			}
			prev = k
			return true
		})
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if tm.Stats().TotalAborts() == aborts0 {
		t.Fatal("the forced-restart hook produced no aborts: the retry path was not exercised")
	}
}

// TestBackupSeesOneCutNotTearing pins the semantics sharply: a writer
// flips two keys between (0,1) and (1,0) — their sum is always 1 in any
// committed state — while chunk size 1 forces the two keys into separate
// backup transactions. Every backup must still see sum 1.
func TestBackupSeesOneCutNotTearing(t *testing.T) {
	tm := core.New()
	m := New[int](tm)
	m.chunk = 1
	if _, err := m.Put(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = tm.Atomically(core.Classic, func(tx *core.Tx) error {
				a, _ := m.tree.GetTx(tx, 0)
				m.tree.PutTx(tx, 0, 1-a)
				m.tree.PutTx(tx, 1, a)
				return nil
			})
		}
	}()
	for round := 0; round < 200; round++ {
		b, err := m.Backup()
		if err != nil {
			t.Fatal(err)
		}
		a, _ := b.Get(0)
		c, _ := b.Get(1)
		if a+c != 1 {
			t.Fatalf("round %d: backup tore across chunks: (%d,%d)", round, a, c)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestRestoreFullTxNoTearing pins the chunked-restore semantics at the
// sharpest setting, chunk size 1 (every examined key its own
// transaction): while RestoreFullTx rewrites the live map, concurrent
// readers may see each binding at its pre-restore value, its backup
// value, or appropriately absent — NEVER a torn third value, and never a
// missing key that both states bind. Afterwards the map must equal the
// backup exactly.
func TestRestoreFullTxNoTearing(t *testing.T) {
	const keys = 60
	tm := core.New()
	m := New[int](tm)
	m.chunk = 1

	// Key classes by k%3: 0 = live-only (the restore must delete it),
	// 1 = bound in both states (old 1000+k, new 2000+k), 2 = backup-only
	// (the restore must create it).
	var bKeys, bVals []int
	for k := 0; k < keys; k++ {
		if k%3 != 2 {
			if _, err := m.Put(k, 1000+k); err != nil {
				t.Fatal(err)
			}
		}
		if k%3 != 0 {
			bKeys = append(bKeys, k)
			bVals = append(bVals, 2000+k)
		}
	}
	b, err := backupOf(1, bKeys, bVals)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := uint64(r)*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int(rng % keys)
				var v int
				var ok bool
				if err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
					v, ok = m.tree.GetTx(tx, k)
					return nil
				}); err != nil {
					continue
				}
				switch {
				case ok && v != 1000+k && v != 2000+k:
					t.Errorf("key %d torn to %d", k, v)
				case ok && k%3 == 0 && v != 1000+k:
					t.Errorf("live-only key %d read backup-era value %d", k, v)
				case ok && k%3 == 2 && v != 2000+k:
					t.Errorf("backup-only key %d read impossible value %d", k, v)
				case !ok && k%3 == 1:
					t.Errorf("key %d bound in both states went missing mid-restore", k)
				}
				if t.Failed() {
					return
				}
			}
		}(r)
	}

	// A few rounds: restore to the backup, then back to the original
	// state, so the readers watch transitions in both directions.
	var oKeys, oVals []int
	for k := 0; k < keys; k++ {
		if k%3 != 2 {
			oKeys = append(oKeys, k)
			oVals = append(oVals, 1000+k)
		}
	}
	orig, err := backupOf(1, oKeys, oVals)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6 && !t.Failed(); round++ {
		target := b
		if round%2 == 1 {
			target = orig
		}
		if err := m.RestoreFullTx(target); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Land on the backup state and verify it binding for binding.
	if err := m.RestoreFullTx(b); err != nil {
		t.Fatal(err)
	}
	if n, err := m.Len(); err != nil || n != len(bKeys) {
		t.Fatalf("restored len = (%d,%v), want %d", n, err, len(bKeys))
	}
	for i, k := range bKeys {
		v, ok, err := m.Get(k)
		if err != nil || !ok || v != bVals[i] {
			t.Fatalf("restored key %d = (%d,%v,%v), want (%d,true,nil)", k, v, ok, err, bVals[i])
		}
	}
}

// backupOf builds a Backup directly from sorted parallel slices. keys
// must be strictly ascending and parallel to vals.
func backupOf[V any](version uint64, keys []int, vals []V) (*Backup[V], error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("persistmap: %d keys, %d vals", len(keys), len(vals))
	}
	if !sort.IntsAreSorted(keys) {
		return nil, fmt.Errorf("persistmap: keys not ascending")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return nil, fmt.Errorf("persistmap: duplicate key %d", keys[i])
		}
	}
	b := &Backup[V]{Version: version}
	b.keys = append(b.keys, keys...)
	b.vals = append(b.vals, vals...)
	return b, nil
}
