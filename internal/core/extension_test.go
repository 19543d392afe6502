package core

import "testing"

// TestReadExtensionAvoidsFalseConflict: with read extension on, a classic
// parse tolerates reading a freshly modified cell as long as its past
// reads still hold — the LSA behaviour, achieving elastically-flavoured
// tolerance with a full read-set check.
func TestReadExtensionAvoidsFalseConflict(t *testing.T) {
	run := func(extension bool) (attempts int, extensions uint64) {
		tm := New(WithReadExtension(extension))
		cells := make([]*TypedCell[int], 8)
		for i := range cells {
			cells[i] = NewTypedCell(tm, i)
		}
		started := make(chan struct{})
		proceed := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = tm.Atomically(Classic, func(tx *Tx) error {
				attempts++
				for i := 0; i < 4; i++ {
					_ = cells[i].Load(tx)
				}
				if attempts == 1 {
					close(started)
					<-proceed
				}
				for i := 4; i < len(cells); i++ {
					_ = cells[i].Load(tx)
				}
				return nil
			})
		}()
		<-started
		// Modify a cell the parse has NOT read yet: a false conflict
		// for the parse's past (its old reads are untouched).
		if err := tm.Atomically(Classic, func(tx *Tx) error {
			cells[5].Store(tx, 99)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		close(proceed)
		<-done
		return attempts, tm.Stats().Extensions
	}

	if attempts, _ := run(false); attempts < 2 {
		t.Errorf("plain TL2 should abort on the fresh version, attempts = %d", attempts)
	}
	attempts, exts := run(true)
	if attempts != 1 {
		t.Errorf("extension should absorb the false conflict, attempts = %d", attempts)
	}
	if exts == 0 {
		t.Error("no extension recorded")
	}
}

// TestReadExtensionCatchesTrueConflict: when a PAST read is stale the
// extension must fail and the transaction aborts — no serializability is
// given up.
func TestReadExtensionCatchesTrueConflict(t *testing.T) {
	tm := New(WithReadExtension(true))
	cells := make([]*TypedCell[int], 8)
	for i := range cells {
		cells[i] = NewTypedCell(tm, i)
	}
	started := make(chan struct{})
	proceed := make(chan struct{})
	attempts := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tm.Atomically(Classic, func(tx *Tx) error {
			attempts++
			for i := 0; i < 4; i++ {
				_ = cells[i].Load(tx)
			}
			if attempts == 1 {
				close(started)
				<-proceed
			}
			for i := 4; i < len(cells); i++ {
				_ = cells[i].Load(tx)
			}
			return nil
		})
	}()
	<-started
	// Modify BOTH a past read and a future read: extension on cells[5]
	// must fail because cells[0] is stale.
	if err := tm.Atomically(Classic, func(tx *Tx) error {
		cells[0].Store(tx, 100)
		cells[5].Store(tx, 100)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	<-done
	if attempts < 2 {
		t.Fatalf("true conflict not caught, attempts = %d", attempts)
	}
}

// TestReadExtensionStressConsistency: extension under fire still keeps
// the conserved-sum invariant and the history checker happy.
func TestReadExtensionStressConsistency(t *testing.T) {
	tm := New(WithReadExtension(true))
	const n = 8
	cells := make([]*TypedCell[int], n)
	for i := range cells {
		cells[i] = NewTypedCell(tm, 0)
	}
	doneCh := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func(seed uint64) {
			rng := seed*0x9e3779b97f4a7c15 + 5
			next := func(m int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(m))
			}
			for i := 0; i < 300; i++ {
				from, to := next(n), next(n)
				if from == to {
					continue
				}
				err := tm.Atomically(Classic, func(tx *Tx) error {
					fv := cells[from].Load(tx)
					tv := cells[to].Load(tx)
					cells[from].Store(tx, fv-1)
					cells[to].Store(tx, tv+1)
					return nil
				})
				if err != nil {
					doneCh <- err
					return
				}
			}
			doneCh <- nil
		}(uint64(w + 1))
	}
	for w := 0; w < 3; w++ {
		if err := <-doneCh; err != nil {
			t.Fatal(err)
		}
	}
	sum := 0
	mustAtomically(t, tm, Snapshot, func(tx *Tx) error {
		sum = 0
		for _, c := range cells {
			v := c.Load(tx)
			sum += v
		}
		return nil
	})
	if sum != 0 {
		t.Fatalf("extension broke conservation: sum = %d", sum)
	}
}
