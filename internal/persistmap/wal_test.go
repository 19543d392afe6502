package persistmap

import (
	"errors"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/persistmap/walsync"
)

// walMap builds a tm+map+store+wal quartet on dir with the WAL attached
// in durable mode.
func walMap(t *testing.T, dir string, opts WALOptions) (*core.TM, *Map[int], *Store[int], *WAL[int]) {
	t.Helper()
	tm := core.New()
	m := New[int](tm)
	s := mustStore[int](t, dir, IntCodec{})
	w, err := s.OpenWAL(opts)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(w, true)
	return tm, m, s, w
}

// replayInto recovers dir into a fresh TM and returns the map + info.
func replayInto(t *testing.T, dir string) (*Map[int], *ReplayInfo) {
	t.Helper()
	tm := core.New()
	m := New[int](tm)
	s := mustStore[int](t, dir, IntCodec{})
	info, err := s.Replay(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, info
}

// mapEquals asserts the map holds exactly want.
func mapEquals(t *testing.T, m *Map[int], want map[int]int, label string) {
	t.Helper()
	for k, v := range want {
		gv, ok, err := m.Get(k)
		if err != nil || !ok || gv != v {
			t.Fatalf("%s: key %d = (%d,%v,%v), want (%d,true,nil)", label, k, gv, ok, err, v)
		}
	}
	if n, err := m.Len(); err != nil || n != len(want) {
		t.Fatalf("%s: len = (%d,%v), want %d", label, n, err, len(want))
	}
}

// TestWALReplayRoundTrip: durable commits, no checkpoint at all — replay
// must rebuild the map from the WAL tail alone.
func TestWALReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, m, _, w := walMap(t, dir, WALOptions{})

	want := map[int]int{}
	for k := 0; k < 40; k++ {
		if _, err := m.Put(k, 100+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 100 + k
	}
	for k := 0; k < 40; k += 3 {
		if _, err := m.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	// Overwrites must replay as the LAST write, not the first.
	for k := 1; k < 40; k += 4 {
		if _, err := m.Put(k, 9000+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 9000 + k
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	m2, info := replayInto(t, dir)
	mapEquals(t, m2, want, "replayed")
	if info.CheckpointVersion != 0 {
		t.Fatalf("CheckpointVersion = %d, want 0 (no checkpoint)", info.CheckpointVersion)
	}
	if info.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
	if info.Applied != info.Records || info.Applied == 0 {
		t.Fatalf("info = %+v, want every record applied", info)
	}
	// A deleted key's absence must survive replay (regression: a replay
	// that ignored delete records would resurrect key 0).
	if _, ok, _ := m2.Get(0); ok {
		t.Fatal("deleted key 0 resurrected by replay")
	}
}

// TestWALNonDurableMode: with durable=false commits do not wait, Close
// drains the queue, and replay still recovers everything that synced.
func TestWALNonDurableMode(t *testing.T) {
	dir := t.TempDir()
	tm := core.New()
	m := New[int](tm)
	s := mustStore[int](t, dir, IntCodec{})
	w, err := s.OpenWAL(WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(w, false)
	want := map[int]int{}
	for k := 0; k < 25; k++ {
		if _, err := m.Put(k, k*k); err != nil {
			t.Fatal(err)
		}
		want[k] = k * k
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := replayInto(t, dir)
	mapEquals(t, m2, want, "non-durable replay")
}

// TestWALCheckpointAndTrim: a full checkpoint ages sealed segments out of
// the WAL (TrimTo), and replay composes checkpoint + remaining tail.
func TestWALCheckpointAndTrim(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1: every group commit seals its segment, so each
	// sequential commit lands alone in one sealed segment.
	tm, m, s, w := walMap(t, dir, WALOptions{SegmentBytes: 1})

	want := map[int]int{}
	for k := 0; k < 12; k++ {
		if _, err := m.Put(k, 500+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 500 + k
	}
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.BackupAt(pin)
	if err != nil {
		t.Fatal(err)
	}
	pin.Release()
	if _, err := s.WriteFull(full); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint tail: new writes replay on top of the checkpoint.
	for k := 6; k < 18; k++ {
		if _, err := m.Put(k, 7000+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 7000 + k
	}
	if _, err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	delete(want, 2)

	removed, err := w.TrimTo(full.Version)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 12 {
		t.Fatalf("TrimTo removed %d segments, want the 12 pre-checkpoint ones", removed)
	}
	infos, err := ScanWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, wi := range infos {
		if wi.Records > 0 && wi.MaxVersion <= full.Version {
			t.Fatalf("segment %d survived TrimTo with MaxVersion %d <= %d", wi.Seq, wi.MaxVersion, full.Version)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	m2, info := replayInto(t, dir)
	mapEquals(t, m2, want, "checkpoint+tail replay")
	if info.CheckpointVersion != full.Version {
		t.Fatalf("CheckpointVersion = %d, want %d", info.CheckpointVersion, full.Version)
	}
	if info.Applied != 13 {
		t.Fatalf("Applied = %d, want the 13 post-checkpoint commits", info.Applied)
	}
}

// TestWALCrashLosesNothingAcked: a mid-batch kill fails the unsynced
// commit loudly, and replay recovers exactly the acked prefix.
func TestWALCrashLosesNothingAcked(t *testing.T) {
	dir := t.TempDir()
	var crashNext bool
	tm := core.New()
	m := New[int](tm)
	s := mustStore[int](t, dir, IntCodec{})
	w, err := s.OpenWAL(WALOptions{BeforeSync: func(int) bool { return crashNext }})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(w, true)
	_ = tm

	want := map[int]int{}
	for k := 0; k < 9; k++ {
		if _, err := m.Put(k, 40+k); err != nil {
			t.Fatal(err)
		}
		want[k] = 40 + k
	}
	crashNext = true
	// The kill hits this commit's batch: its bytes reach the page cache,
	// the crash drops them, and the durability barrier must report that.
	if _, err := m.Put(99, 4099); !errors.Is(err, walsync.ErrClosed) {
		t.Fatalf("crashed commit returned %v, want walsync.ErrClosed", err)
	}
	if _, err := m.Put(100, 4100); !errors.Is(err, walsync.ErrClosed) {
		t.Fatalf("post-crash commit returned %v, want walsync.ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, walsync.ErrClosed) {
		t.Fatalf("Close = %v, want walsync.ErrClosed", err)
	}

	m2, _ := replayInto(t, dir)
	mapEquals(t, m2, want, "acked prefix")
	if _, ok, _ := m2.Get(99); ok {
		t.Fatal("unacked commit 99 survived the crash")
	}
}

// TestWALTornTailStops: bytes sheared off the NEWEST segment mid-record
// replay the intact prefix and nothing past the tear.
func TestWALTornTailStops(t *testing.T) {
	dir := t.TempDir()
	_, m, _, w := walMap(t, dir, WALOptions{})
	for k := 0; k < 6; k++ {
		if _, err := m.Put(k, 10+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := walsync.ScanSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	// Shear 3 bytes: the final record loses its CRC tail.
	if err := os.WriteFile(last.Path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	m2, info := replayInto(t, dir)
	if !info.TornTail {
		t.Fatal("torn tail not reported")
	}
	if info.Applied != 5 {
		t.Fatalf("Applied = %d, want the 5 intact records", info.Applied)
	}
	want := map[int]int{}
	for k := 0; k < 5; k++ {
		want[k] = 10 + k
	}
	mapEquals(t, m2, want, "torn-tail prefix")
	if _, ok, _ := m2.Get(5); ok {
		t.Fatal("replay applied a record past the tear")
	}
}

// TestWALCorruptionRejected is the WAL counterpart of
// TestStoreCorruptionRejected: for every segment of a real log and every
// damage mode — truncations at several lengths, bit flips spread across
// header, records and trailers — VerifyWALSegment must answer ErrCorrupt,
// and Replay must never apply a byte past the first bad record:
// truncation-shaped damage recovers the intact prefix (reported torn),
// full-length corruption in a SEALED segment fails recovery outright,
// and the newest segment tolerates any shape — never a wrong binding.
func TestWALCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	// Three sealed record-bearing segments + one open empty one.
	_, m, _, w := walMap(t, dir, WALOptions{SegmentBytes: 1})
	for k := 0; k < 3; k++ {
		if _, err := m.Put(k, 60+k); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := walsync.ScanSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("%d segments, want 4", len(segs))
	}
	pristine := make(map[string][]byte)
	for _, sg := range segs {
		data, err := os.ReadFile(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		pristine[sg.Path] = data
	}
	restore := func() {
		for path, data := range pristine {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	newest := segs[len(segs)-1].Path
	for _, sg := range segs {
		data := pristine[sg.Path]
		type damage struct {
			label string
			bytes []byte
		}
		var cases []damage
		for _, cut := range []int{len(data) - 1, len(data) - 4, len(data) / 2, 10, 0} {
			if cut < 0 || cut >= len(data) {
				continue
			}
			cases = append(cases, damage{label: "truncate@" + itoa(cut), bytes: append([]byte{}, data[:cut]...)})
		}
		for off := 0; off < len(data); off += 1 + len(data)/13 {
			flipped := append([]byte{}, data...)
			flipped[off] ^= 0x40
			cases = append(cases, damage{label: "flip@" + itoa(off), bytes: flipped})
		}
		for _, c := range cases {
			restore()
			if err := os.WriteFile(sg.Path, c.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := VerifyWALSegment(sg.Path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("seg %d %s: VerifyWALSegment = %v, want ErrCorrupt", sg.Seq, c.label, err)
			}
			tm2 := core.New()
			m2 := New[int](tm2)
			s2 := mustStore[int](t, dir, IntCodec{})
			info, err := s2.Replay(m2)
			// What Replay must do follows the damage classification: a
			// truncation shape (DamageTorn) is the legal residue of a
			// crash or poisoned daemon — replay the intact prefix and
			// report the tear — while full-length corruption in a SEALED
			// segment is a bit flip over acked records and must refuse
			// the log. The newest segment tolerates both shapes (a crash
			// can land garbage, not just truncate).
			tolerant, ierr := ReadWALInfo(sg.Path)
			if ierr != nil {
				t.Fatalf("seg %d %s: ReadWALInfo = %v", sg.Seq, c.label, ierr)
			}
			if sg.Path != newest && tolerant.Damage == DamageCorrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("seg %d %s: Replay = %v, want ErrCorrupt", sg.Seq, c.label, err)
				}
				continue
			}
			// Tolerated damage: replay applies a clean prefix of the
			// commit order and stops at the first bad byte — never a
			// wrong binding.
			if err != nil {
				t.Fatalf("seg %d %s: Replay of damaged segment = %v", sg.Seq, c.label, err)
			}
			if !info.TornTail {
				t.Fatalf("seg %d %s: damaged segment not reported torn", sg.Seq, c.label)
			}
			for k := 0; k < 3; k++ {
				v, ok, err := m2.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if ok && v != 60+k {
					t.Fatalf("seg %d %s: key %d = %d, want %d or absent", sg.Seq, c.label, k, v, 60+k)
				}
			}
		}
	}
	restore()
	for _, sg := range segs {
		if _, err := VerifyWALSegment(sg.Path); err != nil {
			t.Fatalf("pristine segment %d: %v", sg.Seq, err)
		}
	}
	m3, _ := replayInto(t, dir)
	mapEquals(t, m3, map[int]int{0: 60, 1: 61, 2: 62}, "pristine replay")
}

// TestWALScanInfo sanity-checks the structural scan persistctl prints.
func TestWALScanInfo(t *testing.T) {
	dir := t.TempDir()
	_, m, _, w := walMap(t, dir, WALOptions{})
	for k := 0; k < 4; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := ScanWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("%d segments, want 1", len(infos))
	}
	wi := infos[0]
	if wi.Codec != "int" || wi.Records != 5 || wi.Ops != 5 || wi.Torn {
		t.Fatalf("info = %+v, want 5 intact int records", wi)
	}
	if wi.MinVersion == 0 || wi.MaxVersion < wi.MinVersion {
		t.Fatalf("version bounds [%d,%d] implausible", wi.MinVersion, wi.MaxVersion)
	}
}
