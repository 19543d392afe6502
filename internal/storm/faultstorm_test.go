package storm

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persistmap"
	"repro/internal/persistmap/walsync"
)

// TestFaultScheduleStorm drives concurrent durable committers over a
// seeded fault schedule: after a clean warmup the FaultFS starts failing
// operations (ENOSPC, EIO, short writes) at random, which sooner or
// later poisons the group-commit daemon. The test holds the whole
// degradation contract at once:
//
//   - every commit acked before the poison is in the final crash image;
//   - once poisoned, every durable commit fails with ErrDurabilityLost
//     (never a silent ack), and OnDurabilityLost fires exactly once;
//   - DetachWAL is the explicit way down: after it, the map serves
//     (non-durable) writes again without error;
//   - the final crash image replays into a fresh TM as an exact
//     per-worker acked prefix — post-detach writes stay memory-only.
//
// Runs under every clock scheme so the redo path is exercised against
// each runtime configuration (this is a -race staple: workers, the WAL
// daemon, the checkpointer and the injector all race here).
func TestFaultScheduleStorm(t *testing.T) {
	for _, sch := range clock.Schemes() {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sch, seed), func(t *testing.T) {
				runFaultSchedule(t, seed, core.WithClockScheme(sch))
			})
		}
	}
}

func runFaultSchedule(t *testing.T, seed uint64, opts ...core.Option) {
	const (
		dir         = "chain"
		warmKeys    = 6
		workers     = 6
		keysEach    = 4
		opsEach     = 40
		perMille    = 25
		detachBase  = 1 << 20 // post-detach sentinel keys, far from everything
		segmentSize = 128
	)

	ffs := faultfs.New(nil)
	tm := core.New(opts...)
	m := persistmap.New[int](tm)
	s, err := persistmap.NewStoreWith(dir, persistmap.IntCodec{}, persistmap.StoreOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	lost := make(chan error, 4)
	w, err := s.OpenWAL(persistmap.WALOptions{
		SegmentBytes:     segmentSize,
		OnDurabilityLost: func(err error) { lost <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(w, true)

	// Warmup on its own key range, fault-free: all acks must land, and a
	// first checkpoint gives recovery a full to stand on.
	for k := 0; k < warmKeys; k++ {
		if _, err := m.Put(k, 1000+k); err != nil {
			t.Fatalf("warmup put %d: %v", k, err)
		}
	}
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.BackupAt(pin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteFull(b); err != nil {
		t.Fatalf("warmup checkpoint: %v", err)
	}
	if _, err := w.TrimTo(b.Version); err != nil {
		t.Fatalf("warmup trim: %v", err)
	}
	pin.Release()

	// Arm the schedule. From here on any fs operation may fail.
	ffs.SetInjector(faultfs.NewSeededInjector(seed, perMille))

	type wop struct {
		key, val int
		del      bool
		acked    bool
	}
	ops := make([][]wop, workers)
	fatal := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := warmKeys + g*keysEach
			poisoned := false
			for i := 0; i < opsEach; i++ {
				op := wop{key: base + i%keysEach, val: g*10000 + i, del: i%6 == 5}
				var err error
				if op.del {
					_, err = m.Delete(op.key)
				} else {
					_, err = m.Put(op.key, op.val)
				}
				op.acked = err == nil
				ops[g] = append(ops[g], op)
				if err != nil {
					// The memory commit stood; durability was refused. The
					// refusal must carry the poison sentinel, and once seen
					// it never clears.
					if !errors.Is(err, walsync.ErrDurabilityLost) {
						fatal[g] = fmt.Errorf("worker %d op %d: %v, want ErrDurabilityLost", g, i, err)
						return
					}
					poisoned = true
				} else if poisoned {
					fatal[g] = fmt.Errorf("worker %d op %d acked AFTER a poisoned ack — the poison must be sticky", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range fatal {
		if err != nil {
			t.Fatal(err)
		}
	}

	// A post-storm checkpoint attempt under the same schedule: allowed to
	// fail (injected), never allowed to wedge the directory (the replay
	// below proves it stayed loadable either way).
	if pin, err := tm.PinSnapshot(); err == nil {
		if b, err := m.BackupAt(pin); err == nil {
			_, _ = s.WriteFull(b)
		}
		pin.Release()
	}

	poisoned := w.Err() != nil
	if poisoned {
		if !errors.Is(w.Err(), walsync.ErrDurabilityLost) {
			t.Fatalf("WAL.Err() = %v, want ErrDurabilityLost", w.Err())
		}
		select {
		case <-lost:
		default:
			t.Fatal("WAL poisoned but OnDurabilityLost never fired")
		}
		select {
		case err := <-lost:
			t.Fatalf("OnDurabilityLost fired more than once (second: %v)", err)
		default:
		}
		// The explicit degradation: detach, and the map serves again.
		m.DetachWAL()
		for i := 0; i < 3; i++ {
			if _, err := m.Put(detachBase+i, i); err != nil {
				t.Fatalf("post-detach put %d: %v (detached map must serve non-durably)", i, err)
			}
		}
	} else {
		// The schedule happened to spare the WAL: a clean close then.
		if err := w.Close(); err != nil {
			t.Fatalf("unpoisoned WAL failed to close: %v", err)
		}
	}

	// Final audit: pull the plug now. The surviving disk must replay into
	// a fresh TM as warmup + an exact acked-covering prefix per worker,
	// with the post-detach sentinels nowhere on disk.
	img, _ := ffs.CrashImage(ffs.Ops(), 0)
	rs, err := persistmap.NewStoreWith(dir, persistmap.IntCodec{}, persistmap.StoreOptions{FS: img})
	if err != nil {
		t.Fatal(err)
	}
	freshTM := core.New()
	fresh := persistmap.New[int](freshTM)
	if _, err := rs.Replay(fresh); err != nil {
		t.Fatalf("replay of the post-storm disk: %v", err)
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
		t.Fatal(err)
	}

	for k := 0; k < warmKeys; k++ {
		if v, ok := recovered[k]; !ok || v != 1000+k {
			t.Fatalf("warmup key %d recovered as (%d,%v), want %d (warmup was fully acked)", k, v, ok, 1000+k)
		}
	}
	if poisoned {
		for i := 0; i < 3; i++ {
			if v, ok := recovered[detachBase+i]; ok {
				t.Fatalf("post-detach key %d = %d survived on disk — detached writes must be memory-only", detachBase+i, v)
			}
		}
	}
	ackedTotal, lostTotal := 0, 0
	for g := 0; g < workers; g++ {
		base := warmKeys + g*keysEach
		sub := make(map[int]int)
		for k := base; k < base+keysEach; k++ {
			if v, ok := recovered[k]; ok {
				sub[k] = v
			}
		}
		state := make(map[int]int)
		acked, best := 0, -1
		if maps.Equal(sub, state) {
			best = 0
		}
		for j, op := range ops[g] {
			if op.acked {
				acked = j + 1
			}
			if op.del {
				delete(state, op.key)
			} else {
				state[op.key] = op.val
			}
			if maps.Equal(sub, state) {
				best = j + 1
			}
		}
		if best < acked {
			t.Fatalf("worker %d: recovered state matches prefix %d at best, but %d op(s) were acked", g, best, acked)
		}
		ackedTotal += acked
		lostTotal += len(ops[g]) - acked
	}
	t.Logf("poisoned=%v: %d acked / %d refused burst ops, %d fs ops traced, %d bindings recovered",
		poisoned, ackedTotal, lostTotal, ffs.Ops(), len(recovered))
}
