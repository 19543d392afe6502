package persistmap

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func mustStore[V any](t *testing.T, dir string, codec Codec[V]) *Store[V] {
	t.Helper()
	s, err := NewStore(dir, codec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func backupEqual[V comparable](t *testing.T, got, want *Backup[V], label string) {
	t.Helper()
	if got.Version != want.Version {
		t.Fatalf("%s: version %d, want %d", label, got.Version, want.Version)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d bindings, want %d", label, got.Len(), want.Len())
	}
	want.Ascend(func(k int, v V) bool {
		gv, ok := got.Get(k)
		if !ok || gv != v {
			t.Fatalf("%s: key %d = (%v,%v), want (%v,true)", label, k, gv, ok, v)
		}
		return true
	})
}

// TestStoreFullRoundTrip writes a full backup — including the empty-map
// shape — and reads it back binding for binding.
func TestStoreFullRoundTrip(t *testing.T) {
	tm := core.New()
	m := New[int](tm)
	s := mustStore[int](t, t.TempDir(), IntCodec{})

	// Empty map: a full backup with zero bindings must round-trip.
	empty, err := m.Backup()
	if err != nil {
		t.Fatal(err)
	}
	path, err := s.WriteFull(empty)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := s.ReadFull(path)
	if err != nil {
		t.Fatal(err)
	}
	backupEqual(t, loaded, empty, "empty full")

	for k := -3; k < 40; k++ {
		if _, err := m.Put(k, k*11); err != nil {
			t.Fatal(err)
		}
	}
	b, err := m.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if path, err = s.WriteFull(b); err != nil {
		t.Fatal(err)
	}
	if loaded, err = s.ReadFull(path); err != nil {
		t.Fatal(err)
	}
	backupEqual(t, loaded, b, "populated full")

	info, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != FileFull || info.Codec != "int" || info.Count != uint64(b.Len()) || info.Version != b.Version {
		t.Fatalf("info = %+v, want full/int/%d records at version %d", info, b.Len(), b.Version)
	}
	if _, err := VerifyFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCorruptionRejected is the durability table test: for every file
// of a real checkpoint directory — two fulls, the older one not yet
// removed — and every damage mode — truncation at several lengths, bit
// flips spread across header, body and trailer — the load must fail with
// ErrCorrupt, never produce a silently wrong map.
func TestStoreCorruptionRejected(t *testing.T) {
	tm := core.New()
	m := New[int](tm)
	dir := t.TempDir()
	s := mustStore[int](t, dir, IntCodec{})

	for step := 0; step < 2; step++ {
		for i := 0; i < 24; i++ {
			if _, err := m.Put(10*step+i, 7777+i-step); err != nil {
				t.Fatal(err)
			}
		}
		b, err := m.Backup()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteFull(b); err != nil {
			t.Fatal(err)
		}
	}

	infos, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("directory has %d checkpoints, want 2", len(infos))
	}

	pristine := make(map[string][]byte)
	for _, fi := range infos {
		data, err := os.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		pristine[fi.Path] = data
	}
	restore := func() {
		for path, data := range pristine {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	want, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}

	for _, fi := range infos {
		data := pristine[fi.Path]
		name := filepath.Base(fi.Path)
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
			if err := os.WriteFile(fi.Path, c.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s %s: Load = %v, want ErrCorrupt", name, c.label, err)
			}
			if _, err := VerifyFile(fi.Path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s %s: VerifyFile = %v, want ErrCorrupt", name, c.label, err)
			}
		}
	}
	restore()
	if got, err := s.Load(); err != nil {
		t.Fatal(err)
	} else {
		backupEqual(t, got, want, "restored pristine checkpoints")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestStoreCodecMismatch: a checkpoint written with one codec must refuse
// to load under another, by header name, before decoding anything.
func TestStoreCodecMismatch(t *testing.T) {
	tm := core.New()
	m := New[int](tm)
	dir := t.TempDir()
	s := mustStore[int](t, dir, IntCodec{})
	if _, err := m.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	b, err := m.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteFull(b); err != nil {
		t.Fatal(err)
	}
	s2 := mustStore[string](t, dir, StringCodec{})
	if _, err := s2.Load(); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Fatalf("cross-codec load: %v, want codec mismatch", err)
	}
}

// TestStoreStringAndJSONCodecs round-trips the non-word fast path and the
// generic JSON fallback.
func TestStoreStringAndJSONCodecs(t *testing.T) {
	tm := core.New()
	ms := New[string](tm)
	for k, v := range map[int]string{1: "alpha", 2: "", 3: "β-utf8", 4: strings.Repeat("x", 500)} {
		if _, err := ms.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	ss := mustStore[string](t, t.TempDir(), StringCodec{})
	b, err := ms.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.WriteFull(b); err != nil {
		t.Fatal(err)
	}
	got, err := ss.Load()
	if err != nil {
		t.Fatal(err)
	}
	backupEqual(t, got, b, "string codec")

	type point struct{ X, Y int }
	mj := New[point](tm)
	if _, err := mj.Put(9, point{X: 3, Y: 4}); err != nil {
		t.Fatal(err)
	}
	sj := mustStore[point](t, t.TempDir(), JSONCodec[point]{})
	bj, err := mj.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sj.WriteFull(bj); err != nil {
		t.Fatal(err)
	}
	gj, err := sj.Load()
	if err != nil {
		t.Fatal(err)
	}
	backupEqual(t, gj, bj, "json codec")
}

// TestChainReloadUnderFire: with 8 concurrent committers running the
// whole time, four checkpoint cycles each write a full taken at a pin;
// every file, reloaded, must be binding-for-binding identical to a direct
// backup taken at the same pin while the writers keep going, and must
// restore into a FRESH TM identically. Run with -race.
func TestChainReloadUnderFire(t *testing.T) {
	const committers = 8
	tm := core.New()
	m := New[int](tm)
	dir := t.TempDir()
	s := mustStore[int](t, dir, IntCodec{})

	for k := 0; k < 64; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int(rng % 256)
				if rng&3 == 0 {
					_, _ = m.Delete(k)
				} else {
					_, _ = m.Put(k, int(rng%100000))
				}
			}
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for cycle := 0; cycle < 4; cycle++ {
		pin, err := tm.PinSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.BackupAt(pin)
		if err != nil {
			t.Fatal(err)
		}
		path, err := s.WriteFull(b)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := m.BackupAt(pin)
		pin.Release()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := s.ReadFull(path)
		if err != nil {
			t.Fatal(err)
		}
		backupEqual(t, loaded, direct, "checkpoint reload vs direct backup")

		tm2 := core.New()
		m2 := New[int](tm2)
		if err := m2.Restore(loaded); err != nil {
			t.Fatal(err)
		}
		n := 0
		direct.Ascend(func(k, v int) bool {
			gv, ok, err := m2.Get(k)
			if err != nil || !ok || gv != v {
				t.Fatalf("cycle %d: fresh-TM key %d = (%d,%v,%v), want (%d,true,nil)", cycle, k, gv, ok, err, v)
			}
			n++
			return true
		})
		if got, err := m2.Len(); err != nil || got != n {
			t.Fatalf("cycle %d: fresh-TM len = (%d,%v), want %d", cycle, got, err, n)
		}
	}
	latest, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	infos, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != infos[len(infos)-1].Version {
		t.Fatalf("Load read version %d, newest checkpoint is %d", latest.Version, infos[len(infos)-1].Version)
	}
}
