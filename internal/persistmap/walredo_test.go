package persistmap

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persistmap/walsync"
)

// TestWALEndOfAttempt replays the log after every way a transaction can
// end without committing, next to one that commits: the recovered map
// must equal exactly the committed operations — an aborted attempt's ops
// never reach the log, a retried one's land once. Each case returns the
// bindings its committed transactions left.
func TestWALEndOfAttempt(t *testing.T) {
	boom := errors.New("boom")
	put := func(t *testing.T, m *Map[int], k, v int) {
		t.Helper()
		if _, err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, tm *core.TM, m *Map[int]) map[int]int
	}{
		{"conflict retry", func(t *testing.T, tm *core.TM, m *Map[int]) map[int]int {
			put(t, m, 1, 1)
			attempts := 0
			err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				attempts = tx.Attempt()
				v, _ := m.GetTx(tx, 1)
				if tx.Attempt() == 1 {
					put(t, m, 1, 11) // invalidates the read above
				}
				m.PutTx(tx, 2, 20+v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if attempts < 2 {
				t.Fatalf("no conflict provoked (%d attempts)", attempts)
			}
			return map[int]int{1: 11, 2: 31}
		}},
		{"user error", func(t *testing.T, tm *core.TM, m *Map[int]) map[int]int {
			put(t, m, 1, 1)
			err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				m.PutTx(tx, 1, 99)
				m.PutTx(tx, 5, 5)
				m.DeleteTx(tx, 1)
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatal(err)
			}
			return map[int]int{1: 1}
		}},
		{"restart", func(t *testing.T, tm *core.TM, m *Map[int]) map[int]int {
			err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				if tx.Attempt() == 1 {
					m.PutTx(tx, 3, 33)
					tx.Restart()
				}
				m.PutTx(tx, 4, 44)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return map[int]int{4: 44}
		}},
		{"abandoned orElse branch", func(t *testing.T, tm *core.TM, m *Map[int]) map[int]int {
			err := tm.OrElse(
				func(tx *core.Tx) error {
					m.PutTx(tx, 6, 66)
					tx.Retry()
					return nil
				},
				func(tx *core.Tx) error {
					m.PutTx(tx, 7, 77)
					return nil
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			return map[int]int{7: 77}
		}},
		{"blocking retry", func(t *testing.T, tm *core.TM, m *Map[int]) map[int]int {
			ready := core.NewTypedCell(tm, false)
			blocked := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- tm.Atomically(core.Classic, func(tx *core.Tx) error {
					if !ready.Load(tx) {
						m.PutTx(tx, 8, 88)
						if tx.Attempt() == 1 {
							close(blocked)
						}
						tx.Retry()
					}
					m.PutTx(tx, 9, 99)
					return nil
				})
			}()
			<-blocked
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				ready.Store(tx, true)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			return map[int]int{9: 99}
		}},
		{"killed attempt", func(t *testing.T, tm *core.TM, m *Map[int]) map[int]int {
			err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				m.PutTx(tx, 10, 100+tx.Attempt())
				if tx.Attempt() == 1 {
					tx.Kill() // honoured at commit
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return map[int]int{10: 102}
		}},
		{"cross abort then commit", func(t *testing.T, tm *core.TM, m *Map[int]) map[int]int {
			// One participant, restarted in place after its abort.
			var x core.CrossTx
			tm.BeginCross(&x)
			m.PutTx(x.Tx(), 11, 111)
			if !x.Prepare() {
				t.Fatal("uncontended prepare failed")
			}
			x.Abort()
			tm.BeginCross(&x)
			m.PutTx(x.Tx(), 12, 122)
			if !x.Prepare() {
				t.Fatal("uncontended prepare failed")
			}
			x.DrawVersion()
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			return map[int]int{12: 122}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tm, m, _, w := walMap(t, dir, WALOptions{})
			want := tc.run(t, tm, m)
			mapEquals(t, m, want, "live")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			m2, _ := replayInto(t, dir)
			mapEquals(t, m2, want, "replayed")
		})
	}
}

// TestWALUnencodableValue: a value the codec cannot encode still commits
// in memory; in durable mode Atomically returns the codec error, the
// record is never written, and the log keeps working for later commits.
func TestWALUnencodableValue(t *testing.T) {
	dir := t.TempDir()
	tm := core.New()
	m := New[any](tm)
	s := mustStore[any](t, dir, JSONCodec[any]{})
	w, err := s.OpenWAL(WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(w, true)
	if _, err := m.Put(1, "before"); err != nil {
		t.Fatal(err)
	}
	_, err = m.Put(2, func() {})
	if err == nil || errors.Is(err, walsync.ErrClosed) || errors.Is(err, walsync.ErrDurabilityLost) {
		t.Fatalf("unencodable put returned %v, want the codec's error", err)
	}
	if v, ok, _ := m.Get(2); !ok || v == nil {
		t.Fatal("unencodable put did not commit in memory")
	}
	if _, err := m.Put(3, "after"); err != nil {
		t.Fatalf("put after the codec error: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := New[any](core.New())
	if _, err := mustStore[any](t, dir, JSONCodec[any]{}).Replay(m2); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int]any{1: "before", 3: "after"} {
		if v, ok, _ := m2.Get(k); !ok || v != want {
			t.Fatalf("replayed key %d = (%v,%v), want %v", k, v, ok, want)
		}
	}
	if _, ok, _ := m2.Get(2); ok {
		t.Fatal("the unencodable record reached the log")
	}
}

// TestDurablePutAllocs fences the WAL hand-off: once the handle's redo
// buffer and the daemon's staging buffers are warm, a durable Map.Put
// over the real disk — encode, commit, stage, fsync, ack — averages at
// most one allocation.
func TestDurablePutAllocs(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	s, err := NewStoreWith(t.TempDir(), IntCodec{}, StoreOptions{FS: faultfs.OS})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.OpenWAL(WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m := New[int](core.New())
	m.AttachWAL(w, true)
	const keys = 64
	for k := 0; k < keys; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		if _, err := m.Put(i%keys, i); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("durable put allocates %.2f objects/op, want <= 1", allocs)
	}
}

// TestReadWALInfoAllocsPerSegment fences TrimTo's scan: summarizing a
// segment costs the same allocations at 5 000 records as at 50 — none per
// record.
func TestReadWALInfoAllocsPerSegment(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("allocation counts are only meaningful without the race runtime")
	}
	segment := func(records int) walsync.Segment {
		dir := t.TempDir()
		tm := core.New()
		m := New[int](tm)
		w, err := mustStore[int](t, dir, IntCodec{}).OpenWAL(WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m.AttachWAL(w, false)
		for k := 0; k < records; k++ {
			if _, err := m.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := walsync.ScanSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		return segs[0]
	}
	measure := func(sg walsync.Segment, records int) float64 {
		return testing.AllocsPerRun(20, func() {
			info, err := readWALInfo(faultfs.OS, sg, true)
			if err != nil || info.Records != records {
				t.Fatalf("info %+v, %v", info, err)
			}
		})
	}
	small, large := measure(segment(50), 50), measure(segment(5000), 5000)
	if small != large {
		t.Fatalf("readWALInfo allocates %.1f objects over 50 records, %.1f over 5000", small, large)
	}
}
