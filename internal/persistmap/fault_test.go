package persistmap

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
)

// checkpointRun is one deterministic checkpoint script's outcome: the map
// state at each SUCCESSFUL persist step, the state the FAILED step was
// trying to persist (nil if none failed), and the step's error.
type checkpointRun struct {
	states    []map[int]int
	attempted map[int]int
	err       error
}

// runCheckpointScript drives three checkpoint cycles against fsys, the
// store's own: pin, full checkpoint, release, then removal of the
// superseded full and a directory sync. It stops at the first persist
// error. The script is deterministic, so a clean run's fallible-op count
// indexes every fault point for the table test.
func runCheckpointScript(t *testing.T, fsys faultfs.FS, opts StoreOptions) checkpointRun {
	t.Helper()
	opts.FS = fsys
	tm := core.New()
	m := New[int](tm)
	s, err := NewStoreWith("ckpt", IntCodec{}, opts)
	if err != nil {
		return checkpointRun{err: err}
	}
	capture := func() map[int]int {
		state := map[int]int{}
		if err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
			clear(state)
			m.Tree().AscendTx(tx, func(k, v int) bool {
				state[k] = v
				return true
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return state
	}
	var run checkpointRun
	for k := 0; k < 8; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	prev := ""
	for r := 0; r < 3; r++ {
		if r > 0 {
			if _, err := m.Put(100+r, r); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Delete(r); err != nil {
				t.Fatal(err)
			}
		}
		pin, err := tm.PinSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.BackupAt(pin)
		pin.Release()
		if err != nil {
			t.Fatal(err)
		}
		snap := capture()
		path, err := s.WriteFull(b)
		if err == nil && prev != "" {
			if err = fsys.Remove(prev); err == nil {
				err = fsys.SyncDir("ckpt")
			}
		}
		if err != nil {
			run.attempted, run.err = snap, err
			return run
		}
		run.states = append(run.states, snap)
		prev = path
	}
	return run
}

// stateEquals reports whether a loaded backup holds exactly want.
func stateEquals(b *Backup[int], want map[int]int) bool {
	if b.Len() != len(want) {
		return false
	}
	for k, v := range want {
		if gv, ok := b.Get(k); !ok || gv != v {
			return false
		}
	}
	return true
}

// TestCheckpointFaultTable injects ENOSPC, EIO and short writes at EVERY
// fallible filesystem operation of a checkpoint script and holds the
// checkpoint directory to its availability contract: whatever the failure
// point, a fresh Store must still load a checkpoint — the state of the
// last successful (or errored-but-published) persist step, never
// ErrCorrupt, never a silently shorter map. Temp files may leak; Orphans
// must report them and removing them must not change what loads.
func TestCheckpointFaultTable(t *testing.T) {
	// Clean run: count the fault points and pin the final state.
	counter := faultfs.New(nil)
	clean := runCheckpointScript(t, counter, StoreOptions{WriteAttempts: 1, WriteBackoff: time.Nanosecond})
	if clean.err != nil {
		t.Fatalf("clean run failed: %v", clean.err)
	}
	n := counter.Fallible()
	if n < 15 {
		t.Fatalf("only %d fallible ops in the script — the table would be hollow", n)
	}

	faults := []struct {
		label string
		f     faultfs.Fault
	}{
		{"enospc-short", faultfs.Fault{Err: faultfs.ErrNoSpace, Short: -1}},
		{"eio", faultfs.Fault{Err: faultfs.ErrIO}},
	}
	for _, fc := range faults {
		for i := 0; i < n; i++ {
			ffs := faultfs.New(faultfs.FailOp(i, fc.f))
			run := runCheckpointScript(t, ffs, StoreOptions{WriteAttempts: 1, WriteBackoff: time.Nanosecond})
			if run.err == nil {
				// The op the schedule hit was a best-effort one (e.g. a
				// cleanup remove); the contract below must hold anyway.
				run.attempted = nil
			}

			s, err := NewStoreWith("ckpt", IntCodec{}, StoreOptions{FS: ffs})
			if err != nil {
				t.Fatalf("%s@%d: reopen: %v", fc.label, i, err)
			}
			b, lerr := s.Load()
			if len(run.states) == 0 {
				// Nothing was ever acked: the checkpoint is either absent —
				// which must present as "no checkpoint", not as corruption
				// of something never written — or holds the attempted
				// state (the first write published before its error, e.g.
				// on the directory sync after the rename).
				if errors.Is(lerr, ErrNoCheckpoint) {
					continue
				}
				if lerr != nil {
					t.Fatalf("%s@%d: Load of never-acked checkpoint = %v, want ErrNoCheckpoint or the attempted state", fc.label, i, lerr)
				}
				if run.attempted == nil || !stateEquals(b, run.attempted) {
					t.Fatalf("%s@%d: never-acked checkpoint loaded a state that was never attempted", fc.label, i)
				}
				continue
			}
			if lerr != nil {
				t.Fatalf("%s@%d: Load = %v (a checkpoint must stay loadable at every failure point)", fc.label, i, lerr)
			}
			last := run.states[len(run.states)-1]
			// The failed step may have published before erroring (rename
			// landed, directory sync or the superseded full's removal
			// failed): both its state and the last acked one are legal,
			// anything else is not.
			if !stateEquals(b, last) && (run.attempted == nil || !stateEquals(b, run.attempted)) {
				t.Fatalf("%s@%d: loaded state matches neither the last persisted nor the attempted step", fc.label, i)
			}

			// Orphan contract: reporting never errors, and cleaning the
			// orphans away must not change what loads.
			leftover, oerr := orphans(ffs, "ckpt")
			if oerr != nil {
				t.Fatalf("%s@%d: Orphans: %v", fc.label, i, oerr)
			}
			for _, o := range leftover {
				if err := ffs.Remove(o); err != nil {
					t.Fatalf("%s@%d: removing orphan %s: %v", fc.label, i, o, err)
				}
			}
			b2, lerr2 := s.Load()
			if lerr2 != nil || !stateEquals(b2, map[int]int(mustState(b))) {
				t.Fatalf("%s@%d: load after orphan cleanup changed: %v", fc.label, i, lerr2)
			}
		}
	}
}

// mustState flattens a loaded backup into a plain map for re-comparison.
func mustState(b *Backup[int]) map[int]int {
	state := map[int]int{}
	b.Ascend(func(k, v int) bool {
		state[k] = v
		return true
	})
	return state
}

// TestCheckpointWriteRetry: with the default bounded retry, a single
// transient fault anywhere in one checkpoint write is absorbed — the
// write succeeds on a later attempt because every attempt rebuilds the
// whole temp file before publishing (which is exactly why retrying is
// fsyncgate-safe HERE and nowhere near the WAL).
func TestCheckpointWriteRetry(t *testing.T) {
	// Count one WriteFull's fallible ops.
	counter := faultfs.New(nil)
	tmC := core.New()
	mC := New[int](tmC)
	sC, err := NewStoreWith("ckpt", IntCodec{}, StoreOptions{FS: counter})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if _, err := mC.Put(k, 20+k); err != nil {
			t.Fatal(err)
		}
	}
	pre := counter.Fallible()
	pinC, err := tmC.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	bC, err := mC.BackupAt(pinC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sC.WriteFull(bC); err != nil {
		t.Fatal(err)
	}
	pinC.Release()
	n := counter.Fallible()

	for i := pre; i < n; i++ {
		ffs := faultfs.New(faultfs.FailOp(i, faultfs.Fault{Err: faultfs.ErrIO}))
		tm := core.New()
		m := New[int](tm)
		s, err := NewStoreWith("ckpt", IntCodec{}, StoreOptions{FS: ffs, WriteAttempts: 3, WriteBackoff: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			if _, err := m.Put(k, 20+k); err != nil {
				t.Fatal(err)
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
			t.Fatalf("fault@%d: WriteFull with retry = %v, want success", i, err)
		}
		pin.Release()
		got, err := s.Load()
		if err != nil {
			t.Fatalf("fault@%d: Load: %v", i, err)
		}
		if got.Len() != 4 {
			t.Fatalf("fault@%d: loaded %d bindings, want 4", i, got.Len())
		}
	}
}
