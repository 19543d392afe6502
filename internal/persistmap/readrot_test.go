package persistmap

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
)

// rotOnOpen is a targeted read-path schedule: bit rot surfacing the first
// time the named file is opened, everything else clean.
type rotOnOpen struct{ path string }

func (r rotOnOpen) Fault(_ int, op faultfs.OpKind, path string) *faultfs.Fault {
	if op == faultfs.OpOpen && path == r.path {
		return &faultfs.Fault{Rot: true}
	}
	return nil
}

// TestReplayReadRotFallsBack is the read-path recovery regression: the
// checkpoints are written cleanly, then the newest full decays on the
// platter — one bit flips when recovery opens it. The load must surface
// the damage as ErrCorrupt internally (never a silently wrong map),
// report the file in SkippedCorrupt, and fall back to the previous full.
func TestReplayReadRotFallsBack(t *testing.T) {
	fsys := faultfs.New(nil)
	opts := StoreOptions{FS: fsys}
	tm := core.New()
	m := New[int](tm)
	s, err := NewStoreWith("ckpt", IntCodec{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	put := func(k, v int) {
		t.Helper()
		if _, err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	full := func() (uint64, string) {
		t.Helper()
		b, err := m.Backup()
		if err != nil {
			t.Fatal(err)
		}
		path, err := s.WriteFull(b)
		if err != nil {
			t.Fatal(err)
		}
		return b.Version, path
	}

	// Checkpoints: full A (keys 0,1), full B (+ key 2), full C (+ key 3).
	put(0, 10)
	put(1, 11)
	full()
	put(2, 12)
	verB, _ := full()
	put(3, 13)
	_, pathC := full()

	// The platter decays: checkpoint C rots when recovery first opens it.
	fsys.SetReadInjector(rotOnOpen{path: pathC})

	tm2 := core.New()
	m2 := New[int](tm2)
	s2, err := NewStoreWith("ckpt", IntCodec{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s2.Replay(m2)
	if err != nil {
		t.Fatalf("Replay over rotted newest full = %v, want fallback", err)
	}
	if info.CheckpointVersion != verB {
		t.Fatalf("CheckpointVersion = %d, want the previous full's %d", info.CheckpointVersion, verB)
	}
	base := pathC[strings.LastIndex(pathC, "/")+1:]
	if len(info.SkippedCorrupt) != 1 || !strings.Contains(info.SkippedCorrupt[0], base) {
		t.Fatalf("SkippedCorrupt = %v, want exactly the rotted full %s", info.SkippedCorrupt, base)
	}
	// No WAL bridges B→C here, so key 3 is the documented casualty; the
	// previous full must come back exactly.
	mapEquals(t, m2, map[int]int{0: 10, 1: 11, 2: 12}, "read-rot fallback recovery")
}
