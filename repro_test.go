package repro_test

import (
	"errors"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
)

func TestPublicQuickstart(t *testing.T) {
	tm := repro.New()
	a := repro.NewVar(tm, 10)
	b := repro.NewVar(tm, 20)
	err := tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
		a.Set(tx, a.Get(tx)+1)
		b.Set(tx, b.Get(tx)-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	if err := tm.Atomically(repro.Snapshot, func(tx *repro.Tx) error {
		got = a.Get(tx) + b.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Fatalf("sum = %d, want 30", got)
	}
}

// TestNewVarAllocatesOnce fences the Var layout: the cell, with its
// version-0 record, is embedded in the Var, so a word-shaped Var is one
// allocation.
func TestNewVarAllocatesOnce(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := repro.New()
	var sink *repro.Var[int]
	if allocs := testing.AllocsPerRun(100, func() { sink = repro.NewVar(tm, 1) }); allocs != 1 {
		t.Fatalf("NewVar allocates %.1f objects, want 1", allocs)
	}
	_ = sink
}

func TestPublicTypedVars(t *testing.T) {
	tm := repro.New()
	s := repro.NewVar(tm, "hello")
	type point struct{ x, y int }
	p := repro.NewVar(tm, point{1, 2})
	err := tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
		s.Set(tx, s.Get(tx)+" world")
		cur := p.Get(tx)
		cur.x++
		p.Set(tx, cur)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
		if s.Get(tx) != "hello world" {
			t.Errorf("string var = %q", s.Get(tx))
		}
		if p.Get(tx) != (point{2, 2}) {
			t.Errorf("struct var = %+v", p.Get(tx))
		}
		return nil
	})
}

func TestPublicSnapshotRejectsWrites(t *testing.T) {
	tm := repro.New()
	v := repro.NewVar(tm, 1)
	err := tm.Atomically(repro.Snapshot, func(tx *repro.Tx) error {
		v.Set(tx, 2)
		return nil
	})
	if !errors.Is(err, repro.ErrWriteInSnapshot) {
		t.Fatalf("got %v, want ErrWriteInSnapshot", err)
	}
	var semErr *repro.SemanticsError
	if !errors.As(err, &semErr) || semErr.Sem != repro.Snapshot {
		t.Fatalf("error detail: %v", err)
	}
}

func TestPublicRetryLimit(t *testing.T) {
	tm := repro.New(repro.WithMaxRetries(2))
	v := repro.NewVar(tm, 0)
	err := tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
		_ = v.Get(tx)
		tx.Restart()
		return nil
	})
	if !errors.Is(err, repro.ErrRetryLimit) {
		t.Fatalf("got %v, want ErrRetryLimit", err)
	}
}

// TestEarlyReleaseBreaksComposition reproduces section 4.1's argument
// against early release: Alice's "check w then add v" helper releases its
// read of w; two such helpers composed symmetrically can BOTH commit,
// inserting the very pair of values the checks should forbid — while the
// same composition without release never does.
func TestEarlyReleaseBreaksComposition(t *testing.T) {
	type outcome struct{ both int }
	run := func(release bool) outcome {
		var out outcome
		for round := 0; round < 200; round++ {
			tm := repro.New()
			v1 := repro.NewVar(tm, false) // "1 is present"
			v2 := repro.NewVar(tm, false) // "2 is present"
			barrier := make(chan struct{})
			var wg sync.WaitGroup
			addIfAbsent := func(add, check *repro.Var[bool]) {
				defer wg.Done()
				<-barrier
				_ = tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
					if check.Get(tx) {
						return nil
					}
					if release {
						check.Release(tx)
					}
					add.Set(tx, true)
					return nil
				})
			}
			wg.Add(2)
			go addIfAbsent(v1, v2)
			go addIfAbsent(v2, v1)
			close(barrier)
			wg.Wait()
			var both bool
			_ = tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
				both = v1.Get(tx) && v2.Get(tx)
				return nil
			})
			if both {
				out.both++
			}
		}
		return out
	}
	if got := run(false); got.both != 0 {
		t.Fatalf("without early release the anomaly must never happen, got %d/200", got.both)
	}
	if got := run(true); got.both == 0 {
		t.Skip("early-release anomaly did not manifest in 200 rounds (timing-dependent)")
	}
}

func TestPublicStats(t *testing.T) {
	tm := repro.New()
	v := repro.NewVar(tm, 0)
	for i := 0; i < 5; i++ {
		if err := tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
			v.Set(tx, v.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := tm.Stats()
	if st.Commits != 5 {
		t.Fatalf("commits = %d, want 5", st.Commits)
	}
}

func TestPublicConcurrentMixedSemantics(t *testing.T) {
	tm := repro.New()
	cells := make([]*repro.Var[int], 8)
	for i := range cells {
		cells[i] = repro.NewVar(tm, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sems := []repro.Semantics{repro.Classic, repro.Elastic}
			for i := 0; i < 100; i++ {
				sem := sems[i%2]
				err := tm.Atomically(sem, func(tx *repro.Tx) error {
					i, j := (w+i)%8, (w+i+3)%8
					cells[i].Set(tx, cells[i].Get(tx)+1)
					cells[j].Set(tx, cells[j].Get(tx)-1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		var sum int
		if err := tm.Atomically(repro.Snapshot, func(tx *repro.Tx) error {
			sum = 0
			for _, c := range cells {
				sum += c.Get(tx)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum != 0 {
			t.Fatalf("snapshot sum %d, want 0", sum)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestPublicSnapshotPin exercises the Snapshot handle through the public
// surface: multi-transaction consistency against concurrent writers, and
// the released-pin error path.
func TestPublicSnapshotPin(t *testing.T) {
	tm := repro.New()
	vars := make([]*repro.Var[int], 8)
	for i := range vars {
		vars[i] = repro.NewVar(tm, 1)
	}
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
					for _, v := range vars {
						v.Set(tx, v.Get(tx)+1)
					}
					return nil
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = pin.Atomically(func(tx *repro.Tx) error {
				for j, v := range vars {
					if got := v.Get(tx); got != 1 {
						t.Errorf("pinned read %d of var %d = %d, want 1", i, j, got)
					}
				}
				return nil
			})
		}
	}()
	wg.Wait()
	<-done

	if pin.Version() == 0 {
		// vars were committed at creation version 0; the pin was taken
		// after, so nothing more to assert — but Version must be stable.
		t.Log("pin at version 0")
	}
	pin.Release()
	if err := pin.Atomically(func(*repro.Tx) error { return nil }); !errors.Is(err, repro.ErrPinReleased) {
		t.Fatalf("released pin ran: err = %v, want ErrPinReleased", err)
	}
	if _, err := tm.PinSnapshot(); err != nil {
		t.Fatalf("fresh pin after release: %v", err)
	}
}
