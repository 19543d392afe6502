package core

import (
	"testing"
	"time"
)

// White-box tests of the cell locking protocol: these manipulate cells
// directly to pin behaviours that are hard to time through the public
// API.

// waiterCM always waits, so a blocked reader never aborts and its
// snapshot time stays pinned across the wait.
type waiterCM struct{}

func (waiterCM) Arbitrate(_, _ *Tx, _ int) Decision { return DecisionWait }
func (waiterCM) OnCommit(*Tx)                       {}
func (waiterCM) OnAbort(*Tx)                        {}

func TestSnapshotWaitsOutHeldLock(t *testing.T) {
	tm := New(WithContentionManager(waiterCM{}))
	c := NewTypedCell(tm, 10)
	holder := newTx(tm, Classic)
	holder.beginAttempt()
	if _, ok := c.h.tryLock(holder); !ok {
		t.Fatal("could not take the lock")
	}

	got := make(chan int, 1)
	go func() {
		var v int
		_ = tm.Atomically(Snapshot, func(tx *Tx) error {
			v = c.Load(tx)
			return nil
		})
		got <- v
	}()

	// While the lock is held, the snapshot must not complete (it could
	// otherwise observe a torn multi-cell commit).
	select {
	case v := <-got:
		t.Fatalf("snapshot read %d through a held lock", v)
	case <-time.After(20 * time.Millisecond):
	}

	// Publish a new version and release; the snapshot started before the
	// writer's version draw, so it reads the OLD value from the chain.
	wv := tm.clock.Advance()
	c.h.install(encodeVal(c.h.shape, 20), wv, tm.keepVersions, noPinWatermark)
	c.h.unlock(wv)
	select {
	case v := <-got:
		if v != 10 {
			t.Fatalf("snapshot read %d, want the pre-lock value 10", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot never completed after unlock")
	}
	holder.finish(statusAborted)
}

func TestClassicReadWaitsThenProceeds(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 1)
	holder := newTx(tm, Classic)
	holder.beginAttempt()
	if _, ok := c.h.tryLock(holder); !ok {
		t.Fatal("could not take the lock")
	}
	done := make(chan int, 1)
	go func() {
		var v int
		_ = tm.Atomically(Classic, func(tx *Tx) error {
			v = c.Load(tx)
			return nil
		})
		done <- v
	}()
	select {
	case v := <-done:
		t.Fatalf("classic read %d through a held lock", v)
	case <-time.After(10 * time.Millisecond):
	}
	// Abort-release: version restored unchanged; the reader proceeds and
	// sees the old value.
	c.h.unlock(0)
	select {
	case v := <-done:
		if v != 1 {
			t.Fatalf("read %d after abort-release, want 1", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never proceeded")
	}
	holder.finish(statusAborted)
}

func TestTryLockRefusesHeldCell(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 0)
	a := newTx(tm, Classic)
	b := newTx(tm, Classic)
	a.beginAttempt()
	b.beginAttempt()
	if _, ok := c.h.tryLock(a); !ok {
		t.Fatal("first lock failed")
	}
	if _, ok := c.h.tryLock(b); ok {
		t.Fatal("second lock succeeded on a held cell")
	}
	if owner := c.h.owner.Load(); owner != a {
		t.Fatalf("owner = %v, want a", owner)
	}
	c.h.unlock(0)
	if _, ok := c.h.tryLock(b); !ok {
		t.Fatal("lock failed after release")
	}
	c.h.unlock(0)
	a.finish(statusAborted)
	b.finish(statusAborted)
}

func TestUnlockRestoresVersionOnAbort(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, "x")
	// Commit once so the version is non-zero.
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		c.Store(tx, "y")
		return nil
	})
	verBefore := version(c.h.meta.Load())
	tx := newTx(tm, Classic)
	tx.beginAttempt()
	prev, ok := c.h.tryLock(tx)
	if !ok {
		t.Fatal("lock failed")
	}
	if prev != verBefore {
		t.Fatalf("tryLock returned version %d, want %d", prev, verBefore)
	}
	c.h.unlock(prev) // abort path: restore unchanged
	if got := version(c.h.meta.Load()); got != verBefore {
		t.Fatalf("version after abort-release = %d, want %d", got, verBefore)
	}
	if isLocked(c.h.meta.Load()) {
		t.Fatal("cell still locked")
	}
	tx.finish(statusAborted)
}

func TestSampleAtDetectsLock(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 5)
	if _, _, _, ok, _ := c.h.sampleAt(^uint64(0)); !ok {
		t.Fatal("sampleAt of a quiescent cell failed")
	}
	tx := newTx(tm, Classic)
	tx.beginAttempt()
	c.h.tryLock(tx)
	if _, _, _, ok, _ := c.h.sampleAt(^uint64(0)); ok {
		t.Fatal("sampleAt succeeded on a locked cell")
	}
	c.h.unlock(0)
	tx.finish(statusAborted)
}

func TestRetireRecyclesTypedRecords(t *testing.T) {
	// A word-shaped cell cycles a fixed set of records: the record retired
	// by one install must come back as the record installed two commits
	// later (keep=2), proving the freelist actually recycles.
	tm := New()
	c := NewTypedCell(tm, 0)
	tx := newTx(tm, Classic)
	tx.beginAttempt()
	seen := make(map[*rec]int)
	for i := 1; i <= 8; i++ {
		wv := tm.clock.Advance()
		if _, ok := c.h.tryLock(tx); !ok {
			t.Fatal("lock failed")
		}
		c.h.install(encodeVal(c.h.shape, i), wv, tm.keepVersions, noPinWatermark)
		c.h.unlock(wv)
		seen[c.h.cur.Load()]++
	}
	tx.finish(statusAborted)
	// keep=2 steady state touches at most keep+1 distinct records.
	if len(seen) > tm.keepVersions+1 {
		t.Fatalf("8 installs touched %d distinct records, want <= %d (recycling)",
			len(seen), tm.keepVersions+1)
	}
	// A ref-shaped cell must NOT recycle: records are immutable.
	u := NewTypedCell[any](tm, 0)
	useen := make(map[*rec]bool)
	for i := 1; i <= 8; i++ {
		wv := tm.clock.Advance()
		tx2 := newTx(tm, Classic)
		tx2.beginAttempt()
		if _, ok := u.h.tryLock(tx2); !ok {
			t.Fatal("lock failed")
		}
		u.h.install(vbox{ref: i}, wv, tm.keepVersions, noPinWatermark)
		u.h.unlock(wv)
		tx2.finish(statusAborted)
		if useen[u.h.cur.Load()] {
			t.Fatal("ref-shaped cell reused a record; published records must stay immutable")
		}
		useen[u.h.cur.Load()] = true
	}
}

func TestInstallKeepsConfiguredDepth(t *testing.T) {
	tm := New(WithMaxVersions(3))
	c := NewTypedCell[any](tm, 0)
	for i := 1; i <= 6; i++ {
		wv := tm.clock.Advance()
		tx := newTx(tm, Classic)
		tx.beginAttempt()
		if _, ok := c.h.tryLock(tx); !ok {
			t.Fatal("lock failed")
		}
		c.h.install(vbox{ref: i}, wv, tm.keepVersions, noPinWatermark)
		c.h.unlock(wv)
		tx.finish(statusCommitted)
	}
	if n := chainLen(c.h.cur.Load()); n != 3 {
		t.Fatalf("chain length %d, want 3", n)
	}
	// The retained versions are the newest three, in descending order.
	r := c.h.cur.Load()
	want := []int{6, 5, 4}
	for i, w := range want {
		if r == nil || r.ref != w {
			t.Fatalf("version %d: got %+v, want value %d", i, r, w)
		}
		r = r.prev.Load()
	}
}
