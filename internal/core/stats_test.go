package core

import (
	"errors"
	"maps"
	"sync"
	"testing"
)

// statsScenario is one way of ending transactions, with the exact stat
// delta one run of it books, nested bumps included. Scenarios run on
// worker goroutines, so they report failures with t.Error, never t.Fatal.
type statsScenario struct {
	name string
	run  func(t *testing.T, w *statsWorker)
	want Stats
}

// statsWorker owns the cells one goroutine touches, so no scenario meets
// another goroutine's writes and every delta is deterministic.
type statsWorker struct {
	tm    *TM
	a, b  *TypedCell[int] // read, and bumped by nested transactions
	y     *TypedCell[int] // written
	f     *TypedCell[int] // the blocking Retry's condition
	z     *TypedCell[int] // read by snapshots behind a nested bump
	chain []*TypedCell[int]
	x     CrossTx
}

// bump is an independent update transaction on the worker's TM, run from
// inside another transaction's closure to make that one conflict.
func (w *statsWorker) bump(t *testing.T, cells ...*TypedCell[int]) {
	t.Helper()
	if err := w.tm.Atomically(Classic, func(tx *Tx) error {
		for _, c := range cells {
			c.Store(tx, c.Load(tx)+1)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

func (w *statsWorker) atomically(t *testing.T, sem Semantics, fn func(*Tx) error) {
	t.Helper()
	if err := w.tm.Atomically(sem, fn); err != nil {
		t.Error(err)
	}
}

var errStatsUser = errors.New("user abort")

// statsScenarios covers every way an attempt ends: both commit paths
// (Atomically and CrossTx), read-only and update, each abort path that
// can be forced deterministically, the blocking Retry park, a panic, and
// the per-read tallies (cuts, snapshot old reads, read extensions).
var statsScenarios = []statsScenario{
	{"read-only commit", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Classic, func(tx *Tx) error { w.a.Load(tx); return nil })
	}, Stats{Commits: 1, ReadOnlyCommits: 1, Attempts: 1}},
	{"update commit", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Classic, func(tx *Tx) error { w.y.Store(tx, w.y.Load(tx)+1); return nil })
	}, Stats{Commits: 1, Attempts: 1}},
	{"read invalid, retried", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Classic, func(tx *Tx) error {
			w.a.Load(tx)
			if tx.Attempt() == 1 {
				w.bump(t, w.a, w.b) // a is stale, so the extension fails
			}
			w.b.Load(tx)
			return nil
		})
	}, Stats{Commits: 2, ReadOnlyCommits: 1, Attempts: 3,
		Aborts: map[AbortReason]uint64{AbortReadInvalid: 1}}},
	{"read extension", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Classic, func(tx *Tx) error {
			w.a.Load(tx)
			w.bump(t, w.b)
			w.b.Load(tx)
			return nil
		})
	}, Stats{Commits: 2, ReadOnlyCommits: 1, Attempts: 2, Extensions: 1}},
	{"validation abort, retried", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Classic, func(tx *Tx) error {
			w.a.Load(tx)
			if tx.Attempt() == 1 {
				w.bump(t, w.a)
			}
			w.y.Store(tx, 1)
			return nil
		})
	}, Stats{Commits: 2, Attempts: 3, Aborts: map[AbortReason]uint64{AbortValidation: 1}}},
	{"killed at commit, retried", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Classic, func(tx *Tx) error {
			w.y.Store(tx, 2)
			if tx.Attempt() == 1 {
				tx.Kill()
			}
			return nil
		})
	}, Stats{Commits: 1, Attempts: 2, Kills: 1, Aborts: map[AbortReason]uint64{AbortKilled: 1}}},
	{"restart", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Classic, func(tx *Tx) error {
			w.a.Load(tx)
			if tx.Attempt() == 1 {
				tx.Restart()
			}
			return nil
		})
	}, Stats{Commits: 1, ReadOnlyCommits: 1, Attempts: 2,
		Aborts: map[AbortReason]uint64{AbortExplicit: 1}}},
	{"user error", func(t *testing.T, w *statsWorker) {
		err := w.tm.Atomically(Classic, func(tx *Tx) error { w.y.Store(tx, 3); return errStatsUser })
		if !errors.Is(err, errStatsUser) {
			t.Errorf("user error: got %v", err)
		}
	}, Stats{Attempts: 1, Aborts: map[AbortReason]uint64{AbortExplicit: 1}}},
	{"blocking retry, woken", func(t *testing.T, w *statsWorker) {
		// The wake-up commit lands before the park, so the wait set has
		// already changed when the runtime checks it: one park, then a
		// second attempt that commits, with no timing in the totals.
		w.atomically(t, Classic, func(tx *Tx) error {
			if w.f.Load(tx)%2 == 0 {
				w.bump(t, w.f)
				tx.Retry()
			}
			return nil
		})
		w.bump(t, w.f) // even again for the next run
	}, Stats{Commits: 3, ReadOnlyCommits: 1, Attempts: 4}},
	{"retry without reads", func(t *testing.T, w *statsWorker) {
		if err := w.tm.Atomically(Classic, func(tx *Tx) error { tx.Retry(); return nil }); !errors.Is(err, ErrRetryNoReads) {
			t.Errorf("retry without reads: got %v", err)
		}
	}, Stats{Attempts: 1}},
	{"orElse fallback", func(t *testing.T, w *statsWorker) {
		if err := w.tm.OrElse(
			func(tx *Tx) error { w.a.Load(tx); tx.Retry(); return nil },
			func(tx *Tx) error { w.y.Store(tx, w.y.Load(tx)+1); return nil },
		); err != nil {
			t.Error(err)
		}
	}, Stats{Commits: 1, Attempts: 1}},
	{"elastic traversal", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Elastic, func(tx *Tx) error {
			for _, c := range w.chain {
				c.Load(tx)
			}
			return nil
		})
	}, Stats{Commits: 1, ReadOnlyCommits: 1, Attempts: 1, Cuts: 6 - defaultWindowSize}},
	{"snapshot old read", func(t *testing.T, w *statsWorker) {
		w.atomically(t, Snapshot, func(tx *Tx) error {
			w.bump(t, w.z)
			w.z.Load(tx)
			return nil
		})
	}, Stats{Commits: 2, ReadOnlyCommits: 1, Attempts: 2, SnapshotOldReads: 1}},
	{"panic", func(t *testing.T, w *statsWorker) {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		_ = w.tm.Atomically(Classic, func(tx *Tx) error { w.a.Load(tx); panic("boom") })
	}, Stats{Attempts: 1}},
	{"cross update commit", func(t *testing.T, w *statsWorker) {
		w.tm.BeginCross(&w.x)
		w.y.Store(w.x.Tx(), 4)
		if !w.x.Prepare() {
			t.Error("cross prepare failed")
			return
		}
		w.x.DrawVersion()
		if err := w.x.Commit(); err != nil {
			t.Error(err)
		}
	}, Stats{Commits: 1, Attempts: 1}},
	{"cross read-only commit", func(t *testing.T, w *statsWorker) {
		w.tm.BeginCross(&w.x)
		w.a.Load(w.x.Tx())
		if !w.x.Prepare() {
			t.Error("cross prepare failed")
			return
		}
		if err := w.x.Commit(); err != nil {
			t.Error(err)
		}
	}, Stats{Commits: 1, ReadOnlyCommits: 1, Attempts: 1}},
	{"cross abort", func(t *testing.T, w *statsWorker) {
		w.tm.BeginCross(&w.x)
		w.y.Store(w.x.Tx(), 5)
		w.x.Abort()
	}, Stats{Attempts: 1, Aborts: map[AbortReason]uint64{AbortExplicit: 1}}},
	{"cross prepare fails", func(t *testing.T, w *statsWorker) {
		w.tm.BeginCross(&w.x)
		w.a.Load(w.x.Tx())
		w.bump(t, w.a)
		w.y.Store(w.x.Tx(), 6)
		if w.x.Prepare() {
			t.Error("cross prepare validated a stale read")
			w.x.Abort()
		}
	}, Stats{Commits: 1, Attempts: 2, Aborts: map[AbortReason]uint64{AbortValidation: 1}}},
}

// TestStatsExactAtQuiesce runs every statsScenarios entry from 8
// goroutines at once and checks that, once they are all done, Stats
// equals the sum of the known deltas in every field the scenarios touch.
// Each fold site books at least one scenario's outcome, so dropping one
// breaks Attempts and the counter it feeds.
func TestStatsExactAtQuiesce(t *testing.T) {
	const (
		workers = 8
		rounds  = 20
	)
	tm := New(WithReadExtension(true))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		w := &statsWorker{tm: tm,
			a: NewTypedCell(tm, 0), b: NewTypedCell(tm, 0), y: NewTypedCell(tm, 0),
			f: NewTypedCell(tm, 0), z: NewTypedCell(tm, 0)}
		for range 6 {
			w.chain = append(w.chain, NewTypedCell(tm, 0))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				for _, sc := range statsScenarios {
					sc.run(t, w)
				}
			}
		}()
	}
	wg.Wait()

	want := Stats{Aborts: map[AbortReason]uint64{}}
	for _, sc := range statsScenarios {
		d := sc.want
		n := uint64(workers * rounds)
		want.Commits += n * d.Commits
		want.ReadOnlyCommits += n * d.ReadOnlyCommits
		want.Attempts += n * d.Attempts
		want.Cuts += n * d.Cuts
		want.SnapshotOldReads += n * d.SnapshotOldReads
		want.Extensions += n * d.Extensions
		want.Kills += n * d.Kills
		for r, k := range d.Aborts {
			want.Aborts[r] += n * k
		}
	}
	got := tm.Stats()
	check := func(name string, got, want uint64) {
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("Commits", got.Commits, want.Commits)
	check("ReadOnlyCommits", got.ReadOnlyCommits, want.ReadOnlyCommits)
	check("Attempts", got.Attempts, want.Attempts)
	check("Cuts", got.Cuts, want.Cuts)
	check("SnapshotOldReads", got.SnapshotOldReads, want.SnapshotOldReads)
	check("Extensions", got.Extensions, want.Extensions)
	check("Kills", got.Kills, want.Kills)
	if !maps.Equal(got.Aborts, want.Aborts) {
		t.Errorf("Aborts = %v, want %v", got.Aborts, want.Aborts)
	}
}
