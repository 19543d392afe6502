package persistmap

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// buildFallbackDir constructs the fallback scenario on the real disk:
//
//	phase 1  keys 0,1 → 10,11   full checkpoint A
//	phase 2  key  2   → 12      full checkpoint B
//	phase 3  key  3   → 13      full checkpoint C
//	phase 4  key  4   → 14      (WAL only)
//
// every commit durable through a one-record-per-segment WAL. trim runs
// TrimTo(C) when set — aging phase 1–3's records out of the WAL — and
// the newest full (C) is then bit-flipped. Returns the directory, C's
// path, and B's version.
func buildFallbackDir(t *testing.T, trim bool) (dir, fullC string, versionB uint64) {
	t.Helper()
	dir = t.TempDir()
	tm := core.New()
	m := New[int](tm)
	s := mustStore[int](t, dir, IntCodec{})
	w, err := s.OpenWAL(WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(w, true)

	put := func(k, v int) {
		t.Helper()
		if _, err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func() (uint64, string) {
		t.Helper()
		pin, err := tm.PinSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer pin.Release()
		b, err := m.BackupAt(pin)
		if err != nil {
			t.Fatal(err)
		}
		path, err := s.WriteFull(b)
		if err != nil {
			t.Fatal(err)
		}
		return b.Version, path
	}

	put(0, 10)
	put(1, 11)
	checkpoint()
	put(2, 12)
	verB, _ := checkpoint()
	put(3, 13)
	verC, pathC := checkpoint()
	if trim {
		if _, err := w.TrimTo(verC); err != nil {
			t.Fatal(err)
		}
	}
	put(4, 14)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of the newest full: checkpoint C is now
	// the corrupt file.
	data, err := os.ReadFile(pathC)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(pathC, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, pathC, verB
}

// TestReplayFallbackCorruptNewestFull: with the newest full checkpoint
// corrupt but the WAL intact since the previous full, recovery falls
// back to full B and re-applies the surviving records —
// recovering EVERYTHING, because every commit past B is still in the
// log. The corrupt file is reported, not fatal.
func TestReplayFallbackCorruptNewestFull(t *testing.T) {
	dir, fullC, verB := buildFallbackDir(t, false)
	tm := core.New()
	m := New[int](tm)
	s := mustStore[int](t, dir, IntCodec{})
	info, err := s.Replay(m)
	if err != nil {
		t.Fatalf("Replay with corrupt newest full = %v, want fallback", err)
	}
	if info.CheckpointVersion != verB {
		t.Fatalf("CheckpointVersion = %d, want the previous full's %d", info.CheckpointVersion, verB)
	}
	if len(info.SkippedCorrupt) != 1 || !strings.Contains(info.SkippedCorrupt[0], fullC[strings.LastIndex(fullC, "/")+1:]) {
		t.Fatalf("SkippedCorrupt = %v, want exactly the damaged full %s", info.SkippedCorrupt, fullC)
	}
	mapEquals(t, m, map[int]int{0: 10, 1: 11, 2: 12, 3: 13, 4: 14}, "full fallback recovery")
}

// TestReplayFallbackAfterTrim pins the DEGRADED variant: the WAL was
// trimmed against checkpoint C before C went bad, so the records
// bridging B→C are gone. Recovery still loads — previous full plus the
// surviving tail — and exactly the commits covered by {full ≤ B} ∪
// {WAL > C} come back: phase 3's key is the casualty, and the non-empty
// SkippedCorrupt is the caller's signal that this recovery is partial.
func TestReplayFallbackAfterTrim(t *testing.T) {
	dir, _, verB := buildFallbackDir(t, true)
	tm := core.New()
	m := New[int](tm)
	s := mustStore[int](t, dir, IntCodec{})
	info, err := s.Replay(m)
	if err != nil {
		t.Fatalf("Replay = %v, want degraded fallback", err)
	}
	if info.CheckpointVersion != verB {
		t.Fatalf("CheckpointVersion = %d, want %d", info.CheckpointVersion, verB)
	}
	if len(info.SkippedCorrupt) != 1 {
		t.Fatalf("SkippedCorrupt = %v, want the damaged full", info.SkippedCorrupt)
	}
	// Key 3 was committed between B and C: its WAL record aged out with
	// TrimTo(C) and its checkpoint is the corrupt file — unrecoverable.
	// Everything else pins exactly.
	mapEquals(t, m, map[int]int{0: 10, 1: 11, 2: 12, 4: 14}, "post-trim fallback recovery")
	if _, ok, _ := m.Get(3); ok {
		t.Fatal("key 3 resurfaced: it should be the documented casualty")
	}
}
