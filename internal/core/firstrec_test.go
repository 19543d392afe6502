package core

import (
	"errors"
	"fmt"
	"testing"
)

// These tests fence the cell layout — the version-0 record embedded in the
// cell, cells embedded by value in structures through InitTypedCell — and
// the pinned read path that walks such chains without waiting.

func TestNewTypedCellAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := New()
	n := &struct{ v int }{}
	for name, f := range map[string]func(){
		"word":    func() { _ = NewTypedCell(tm, 7) },
		"pointer": func() { _ = NewTypedCell(tm, n) },
	} {
		if allocs := measureAllocs(f); allocs != 1 {
			t.Errorf("NewTypedCell (%s) allocates %.1f objects, want 1", name, allocs)
		}
	}
}

func TestInitTypedCellPanicsOnInitializedCell(t *testing.T) {
	tm := New()
	var c TypedCell[int]
	InitTypedCell(tm, &c, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("second InitTypedCell did not panic")
		}
		// The failed call left the cell as it was.
		if got := c.h.cur.Load(); got != &c.h.first || got.word.Load() != 1 {
			t.Fatal("the panicking InitTypedCell rewrote the cell")
		}
	}()
	InitTypedCell(tm, &c, 2)
}

// TestFirstRecordRecycles: the embedded version-0 record is an ordinary
// record. Unpinned, it is retired into the freelist and rewritten by a
// later install like any other; under a pin it is retained, unchanged.
func TestFirstRecordRecycles(t *testing.T) {
	bump := func(tm *TM, c *TypedCell[int], n int, each func()) {
		for i := 0; i < n; i++ {
			mustAtomically(t, tm, Classic, func(tx *Tx) error {
				c.Store(tx, c.Load(tx)+1)
				return nil
			})
			each()
		}
	}

	tm := New(WithMaxVersions(2))
	c := NewTypedCell(tm, 0)
	first := &c.h.first
	if c.h.cur.Load() != first {
		t.Fatal("a fresh cell's current record is not its embedded first record")
	}
	reused := false
	bump(tm, c, 10, func() {
		if r := c.h.cur.Load(); r == first && r.version.Load() > 0 {
			reused = true
		}
	})
	if n := chainLen(c.h.cur.Load()); n != 2 {
		t.Fatalf("chain length %d after 10 updates, want 2", n)
	}
	if !reused {
		t.Fatal("the embedded first record never came back from the freelist")
	}

	tm = New(WithMaxVersions(2))
	c = NewTypedCell(tm, 0)
	first = &c.h.first
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	bump(tm, c, 10, func() {
		if first.version.Load() != 0 || first.word.Load() != 0 {
			t.Fatal("the first record was rewritten under a pin that reads it")
		}
	})
	var got int
	if err := pin.Atomically(func(tx *Tx) error { got = c.Load(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("pinned read = %d, want the first record's 0", got)
	}
	pin.Release()
}

// giveUpCM aborts a blocked transaction at once. With WithMaxRetries(1) a
// read that would wait on a lock then surfaces as an error instead of
// blocking, so the explorer below tells a waiting read from a completed
// one on a single goroutine.
type giveUpCM struct{}

func (giveUpCM) Arbitrate(_, _ *Tx, _ int) Decision { return DecisionAbortSelf }
func (giveUpCM) OnCommit(*Tx)                       {}
func (giveUpCM) OnAbort(*Tx)                        {}

// steppedCommit is one update transaction writing val to both cells,
// driven one protocol step at a time in commit.go's order: lock x, lock
// y, draw wv, sample the watermark, install x, unlock x, install y,
// unlock y.
type steppedCommit struct {
	tm        *TM
	holder    *Tx
	cells     [2]*TypedCell[int]
	val       int
	final     bool
	done      int // steps taken so far
	wv, mark  uint64
	inPlaceAt [2]bool // install rewrote the current record in place
}

const steppedCommitSteps = 8

// locked and published report cell i's state after done steps.
func (c *steppedCommit) locked(i, done int) bool    { return done > i && !c.published(i, done) }
func (c *steppedCommit) published(i, done int) bool { return done > 5+2*i }

func (c *steppedCommit) advanceTo(n int) {
	for ; c.done < n; c.done++ {
		switch s := c.done; {
		case s < 2:
			if _, ok := c.cells[s].h.tryLock(c.holder); !ok {
				panic("steppedCommit: lock taken")
			}
		case s == 2:
			c.wv, _ = c.tm.clock.Commit(0)
		case s == 3:
			c.mark = c.tm.pins.current()
		case s%2 == 0:
			h := &c.cells[(s-4)/2].h
			keep := c.tm.keepVersions
			if c.final {
				keep = 1
			}
			old := h.cur.Load()
			h.install(encodeVal(h.shape, c.val), c.wv, keep, c.mark)
			c.inPlaceAt[(s-4)/2] = h.cur.Load() == old
		default:
			c.cells[(s-5)/2].h.unlock(c.wv)
		}
	}
}

// pinRaceCase is one schedule of TestPinnedReadRacesCommitter: the pin is
// taken after pin committer steps, x is read after x steps and y after y.
// When moved, a commit of 1 to both cells precedes the race — before the
// pin, or after it when pastPin.
type pinRaceCase struct {
	scheme         ClockScheme
	final          bool
	moved, pastPin bool
	pin, x, y      int
}

func (rc pinRaceCase) String() string {
	return fmt.Sprintf("%s/final=%v/moved=%v/pastPin=%v/pin@%d/x@%d/y@%d",
		rc.scheme, rc.final, rc.moved, rc.pastPin, rc.pin, rc.x, rc.y)
}

// TestPinnedReadRacesCommitter is the explorer of the pinned read path: a
// transaction pinned at P reads x, then y, while a committer writing both
// stands at every boundary of its protocol — the pin itself taken at every
// boundary too, the cells' versions on either side of P before the race,
// and the write plain or final (a final write at or below the watermark is
// the in-place scrub, here of the cells' embedded first records). Each
// read must return exactly the value committed at P, and it may wait only
// on a cell locked at a version <= P, whose holder may still install at or
// below P. A cell already past P is read at once, lock or no lock.
func TestPinnedReadRacesCommitter(t *testing.T) {
	var schedules, fastLocked, firstScrubs int
	for _, scheme := range []ClockScheme{ClockGV1, ClockGVPass, ClockGVSharded} {
		for _, final := range []bool{false, true} {
			for _, v := range []struct{ moved, pastPin bool }{{false, false}, {true, false}, {true, true}} {
				lastPin := steppedCommitSteps
				if v.pastPin {
					lastPin = 0 // the moving commit sits between the pin and the race
				}
				for p := 0; p <= lastPin; p++ {
					for x := p; x <= steppedCommitSteps; x++ {
						for y := x; y <= steppedCommitSteps; y++ {
							fast, scrubs := pinnedReadSchedule(t, pinRaceCase{scheme, final, v.moved, v.pastPin, p, x, y})
							schedules++
							fastLocked += fast
							firstScrubs += scrubs
						}
					}
				}
			}
		}
	}
	t.Logf("%d schedules, %d reads past a held lock, %d in-place scrubs of an embedded first record",
		schedules, fastLocked, firstScrubs)
	if fastLocked == 0 || firstScrubs == 0 {
		t.Fatal("the explorer never read past a held lock or never scrubbed a first record in place")
	}
}

// pinnedReadSchedule runs one schedule and returns how many of its reads
// completed past a held lock and how many first records the committer
// scrubbed in place.
func pinnedReadSchedule(t *testing.T, rc pinRaceCase) (fastLocked, firstScrubs int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v: "+format, append([]any{rc}, args...)...)
	}
	tm := New(WithClockScheme(rc.scheme), WithContentionManager(giveUpCM{}), WithSpinBudget(0), WithMaxRetries(1))
	x, y := NewTypedCell(tm, 0), NewTypedCell(tm, 0)
	cells := [2]*TypedCell[int]{x, y}
	move := func() {
		mustAtomically(t, tm, Classic, func(tx *Tx) error {
			x.Store(tx, 1)
			y.Store(tx, 1)
			return nil
		})
	}
	if rc.moved && !rc.pastPin {
		move()
	}
	holder := newTx(tm, Classic)
	holder.beginAttempt()
	defer holder.finish(statusCommitted)
	c := &steppedCommit{tm: tm, holder: holder, cells: cells, val: 2, final: rc.final}

	c.advanceTo(rc.pin)
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	P := pin.Version()
	if rc.pastPin {
		move()
	}
	before := [2]uint64{version(x.h.meta.Load()), version(y.h.meta.Load())}
	atP := 0 // the value both cells held at P before the race
	if rc.moved && !rc.pastPin {
		atP = 1
	}

	// want reports whether a read of cell k after done steps may wait, and
	// the value it must return if it does not: the committer's when its
	// write version, drawn at step 2, is at or below P.
	want := func(k, done int) (mayWait bool, val int) {
		val = atP
		if done > 2 && c.wv <= P {
			val = 2
		}
		return c.locked(k, done) && before[k] <= P, val
	}

	var got [2]int
	read := 0
	err = pin.Atomically(func(tx *Tx) error {
		for k, at := range [2]int{rc.x, rc.y} {
			c.advanceTo(at)
			got[k] = cells[k].Load(tx)
			read++
			if c.locked(k, at) {
				fastLocked++
			}
		}
		return nil
	})
	for k, at := range [2]int{rc.x, rc.y} {
		mayWait, val := want(k, at)
		if k == read { // this read did not return: it waited
			if !mayWait {
				fail("read of cell %d waited (%v) on a cell at version %d, pin %d", k, err, before[k], P)
			}
			if !errors.Is(err, ErrRetryLimit) {
				fail("read of cell %d waited, but the transaction returned %v", k, err)
			}
			break
		}
		if got[k] != val {
			fail("read of cell %d = %d, want %d (P=%d, wv=%d)", k, got[k], val, P, c.wv)
		}
	}
	if read == 2 && err != nil {
		fail("both reads returned, yet the transaction failed: %v", err)
	}

	// Once the commit is through, the pin still reads its own state and a
	// fresh transaction the new one.
	c.advanceTo(steppedCommitSteps)
	wantAtP := atP
	if c.wv <= P {
		wantAtP = 2
	}
	if err := pin.Atomically(func(tx *Tx) error {
		got = [2]int{x.Load(tx), y.Load(tx)}
		return nil
	}); err != nil || got != [2]int{wantAtP, wantAtP} {
		fail("pinned reads after the commit = %v (%v), want %d twice", got, err, wantAtP)
	}
	// (Snapshot: a classic first attempt may start at a recent, stale
	// version and spend its one attempt on a read-invalid abort.)
	mustAtomically(t, tm, Snapshot, func(tx *Tx) error {
		got = [2]int{x.Load(tx), y.Load(tx)}
		return nil
	})
	if got != [2]int{2, 2} {
		fail("reads after the commit = %v, want 2 twice", got)
	}
	for k, cl := range cells {
		if c.inPlaceAt[k] && cl.h.cur.Load() == &cl.h.first {
			firstScrubs++
		}
	}
	return fastLocked, firstScrubs
}
