package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/persistmap"
	"repro/internal/persistmap/walsync"
)

// mustRun asserts a clean (exit 0) invocation.
func mustRun(t *testing.T, args []string, out *strings.Builder) {
	t.Helper()
	code, err := run(args, out)
	if code != exitOK || err != nil {
		t.Fatalf("%v: code %d, err %v\n%s", args, code, err, out.String())
	}
}

// writeCheckpoints runs two checkpoint cycles over a live map in dir —
// two full checkpoints, the older one left in place — and returns the
// state the newer one holds.
func writeCheckpoints(t *testing.T, dir string) map[int]int {
	t.Helper()
	tm := core.New()
	m := persistmap.New[int](tm)
	s, err := persistmap.NewStore(dir, persistmap.IntCodec{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 16; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var b *persistmap.Backup[int]
	for step := 0; step < 2; step++ {
		if step > 0 {
			if _, err := m.Put(100, step); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Delete(step); err != nil {
				t.Fatal(err)
			}
		}
		if b, err = m.Backup(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteFull(b); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[int]int)
	b.Ascend(func(k, v int) bool {
		want[k] = v
		return true
	})
	return want
}

func TestInfoVerify(t *testing.T) {
	dir := t.TempDir()
	want := writeCheckpoints(t, dir)
	infos, err := persistmap.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("scan found %d checkpoints, want 2", len(infos))
	}

	// info names the newest full only, with its record count.
	var out strings.Builder
	mustRun(t, []string{"info", dir}, &out)
	newest := fmt.Sprintf("version %d codec=int records=%d", infos[1].Version, len(want))
	for _, frag := range []string{filepath.Base(infos[1].Path), "full", newest} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("info output lacks %q:\n%s", frag, out.String())
		}
	}
	if strings.Contains(out.String(), filepath.Base(infos[0].Path)) {
		t.Fatalf("info lists the superseded full:\n%s", out.String())
	}

	out.Reset()
	mustRun(t, []string{"verify", dir}, &out)
	if !strings.Contains(out.String(), "2 file(s) verified") {
		t.Fatalf("verify output:\n%s", out.String())
	}
}

func TestVerifyRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir)
	infos, err := persistmap.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := infos[len(infos)-1].Path
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code, _ := run([]string{"verify", filepath.Clean(victim)}, &out); code != exitCorrupt {
		t.Fatalf("verify of a bit-flipped file: code %d, want %d:\n%s", code, exitCorrupt, out.String())
	}
	// info keeps rendering the directory — it falls back to the older
	// intact full — but the exit code must still say corrupt.
	out.Reset()
	if code, _ := run([]string{"info", dir}, &out); code != exitCorrupt {
		t.Fatalf("info on a dir with a bit-flipped file: code %d, want %d:\n%s", code, exitCorrupt, out.String())
	}
	if !strings.Contains(out.String(), "corrupt") || !strings.Contains(out.String(), filepath.Base(infos[0].Path)) {
		t.Fatalf("info does not name the damage and the intact full:\n%s", out.String())
	}
}

// TestVerifyRejectsDiffFile: an incremental-diff file (kind 2) an older
// build wrote beside its fulls is corrupt to this build — verify exits 2
// on it — while info still names the intact full.
func TestVerifyRejectsDiffFile(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir)
	infos, err := persistmap.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	full := infos[len(infos)-1]
	// The older build's layout: the full's header with kind 2 and a
	// parent, then { kind, key, len, value } records and the CRC.
	buf := append([]byte("repromap"), 1, 0, 2, 3)
	buf = append(buf, "int"...)
	buf = binary.LittleEndian.AppendUint64(buf, full.Version+1)
	buf = binary.LittleEndian.AppendUint64(buf, full.Version)
	buf = binary.LittleEndian.AppendUint64(buf, 1)
	buf = append(buf, 2)
	buf = binary.LittleEndian.AppendUint64(buf, 100)
	buf = binary.LittleEndian.AppendUint32(buf, 8)
	buf = binary.LittleEndian.AppendUint64(buf, 7)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	diff := filepath.Join(dir, fmt.Sprintf("diff-%016x-%016x.pmb", full.Version, full.Version+1))
	if err := os.WriteFile(diff, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	for _, target := range []string{diff, dir} {
		out.Reset()
		if code, _ := run([]string{"verify", target}, &out); code != exitCorrupt {
			t.Fatalf("verify %s: code %d, want %d:\n%s", target, code, exitCorrupt, out.String())
		}
	}
	out.Reset()
	if code, _ := run([]string{"info", dir}, &out); code != exitCorrupt {
		t.Fatalf("info beside a diff file: code %d, want %d:\n%s", code, exitCorrupt, out.String())
	}
	if !strings.Contains(out.String(), filepath.Base(full.Path)) || !strings.Contains(out.String(), "unknown file kind 2") {
		t.Fatalf("info does not name the intact full and the rejected diff:\n%s", out.String())
	}
}

// writeWAL commits a handful of durable puts through a group-commit WAL in
// dir (tiny segments, so several sealed segments result) and closes it.
func writeWAL(t *testing.T, dir string) {
	t.Helper()
	tm := core.New()
	m := persistmap.New[int](tm)
	s, err := persistmap.NewStore(dir, persistmap.IntCodec{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.OpenWAL(persistmap.WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(w, true)
	for k := 0; k < 4; k++ {
		if _, err := m.Put(k, 10+k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALInfoVerify covers the tool's write-ahead-log face: info and
// verify must pick up .wal segments alongside the checkpoints, a WAL-only
// directory is not an error, and a bit-flipped sealed segment is
// classified corrupt (exit 2) by both — full-length damage is never the
// torn shape.
func TestWALInfoVerify(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir)
	writeWAL(t, dir)
	segs, err := walsync.ScanSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected several wal segments, got %d", len(segs))
	}

	var out strings.Builder
	mustRun(t, []string{"info", dir}, &out)
	for _, frag := range []string{"full", "wal seq", "codec=int"} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("info output lacks %q:\n%s", frag, out.String())
		}
	}

	out.Reset()
	mustRun(t, []string{"verify", dir}, &out)
	want := fmt.Sprintf("%d file(s) verified", 2+len(segs))
	if !strings.Contains(out.String(), want) {
		t.Fatalf("verify output lacks %q:\n%s", want, out.String())
	}

	// A directory holding only WAL segments is a legitimate target.
	walOnly := t.TempDir()
	writeWAL(t, walOnly)
	out.Reset()
	mustRun(t, []string{"info", walOnly}, &out)
	if strings.Contains(out.String(), ".pmb") {
		t.Fatalf("wal-only dir claims a checkpoint:\n%s", out.String())
	}

	// Flip a byte inside the oldest sealed segment: full-length damage,
	// so both verify and info must exit 2 — info still rendering the
	// rest of the directory on the way.
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code, _ := run([]string{"verify", dir}, &out); code != exitCorrupt {
		t.Fatalf("verify of a bit-flipped wal segment: code %d, want %d:\n%s", code, exitCorrupt, out.String())
	}
	out.Reset()
	if code, _ := run([]string{"info", dir}, &out); code != exitCorrupt {
		t.Fatalf("info after wal flip: code %d, want %d:\n%s", code, exitCorrupt, out.String())
	}
	if !strings.Contains(out.String(), "corrupt") {
		t.Fatalf("info output does not flag the damaged segment:\n%s", out.String())
	}
}

// TestExitCodeTable drives every damage scenario through the CLI and pins
// the documented exit-code contract: 0 clean, 1 torn tail, 2 corrupt
// (dominating torn), 3 operational.
func TestExitCodeTable(t *testing.T) {
	build := func(t *testing.T, torn, corrupt bool) string {
		t.Helper()
		dir := t.TempDir()
		writeCheckpoints(t, dir)
		writeWAL(t, dir)
		segs, err := walsync.ScanSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if torn {
			// Cut the newest segment mid-record: the legal crash shape.
			last := segs[len(segs)-1].Path
			data, err := os.ReadFile(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(last, data[:len(data)-2], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if corrupt {
			data, err := os.ReadFile(segs[0].Path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-2] ^= 0x40
			if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	cases := []struct {
		name          string
		torn, corrupt bool
		want          int
	}{
		{"clean", false, false, exitOK},
		{"torn-tail", true, false, exitTorn},
		{"corrupt", false, true, exitCorrupt},
		{"torn-and-corrupt", true, true, exitCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t, tc.torn, tc.corrupt)
			for _, cmd := range []string{"info", "verify"} {
				var out strings.Builder
				code, err := run([]string{cmd, dir}, &out)
				if code != tc.want {
					t.Fatalf("%s: code %d (err %v), want %d\n%s", cmd, code, err, tc.want, out.String())
				}
				if (err != nil) != (tc.want != exitOK) {
					t.Fatalf("%s: err %v inconsistent with code %d", cmd, err, code)
				}
			}
		})
	}
	t.Run("operational", func(t *testing.T) {
		var out strings.Builder
		if code, err := run([]string{"info", filepath.Join(t.TempDir(), "nope")}, &out); code != exitUsage || err == nil {
			t.Fatalf("missing path: code %d, err %v, want %d", code, err, exitUsage)
		}
	})
}

// TestCleanRemovesOrphans: an interrupted checkpoint's temp file is
// reported by info and removed by clean; the checkpoints are untouched.
func TestCleanRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir)
	orphan := filepath.Join(dir, "zz-interrupted.pmb.tmp")
	if err := os.WriteFile(orphan, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	mustRun(t, []string{"info", dir}, &out)
	if !strings.Contains(out.String(), "orphaned temp file") {
		t.Fatalf("info does not report the orphan:\n%s", out.String())
	}

	out.Reset()
	mustRun(t, []string{"clean", dir}, &out)
	if !strings.Contains(out.String(), "1 orphaned temp file(s) removed") {
		t.Fatalf("clean output:\n%s", out.String())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan still present after clean (stat err %v)", err)
	}
	// Idempotent, and the checkpoints still verify.
	out.Reset()
	mustRun(t, []string{"clean", dir}, &out)
	if !strings.Contains(out.String(), "0 orphaned temp file(s) removed") {
		t.Fatalf("second clean output:\n%s", out.String())
	}
	out.Reset()
	mustRun(t, []string{"verify", dir}, &out)
}

func TestUnknownCommand(t *testing.T) {
	var out strings.Builder
	if code, err := run([]string{"frobnicate", "x"}, &out); code != exitUsage || err == nil {
		t.Fatalf("unknown command: code %d, err %v", code, err)
	}
	if code, err := run([]string{"info"}, &out); code != exitUsage || err == nil {
		t.Fatalf("info with no paths: code %d, err %v", code, err)
	}
	if code, err := run(nil, &out); code != exitUsage || err == nil {
		t.Fatalf("no args: code %d, err %v", code, err)
	}
}
