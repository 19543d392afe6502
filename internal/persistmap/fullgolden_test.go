package persistmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// goldenFullPath is a full checkpoint written by WriteFull from
// goldenFull. It pins the checkpoint format byte for byte, as
// testdata/golden-int.wal pins the WAL's.
const goldenFullPath = "testdata/golden-int.pmb"

// goldenFull is the Backup behind testdata/golden-int.pmb: version 42, a
// negative key, a zero key with a zero value, and a key past 32 bits.
var (
	goldenFullVersion = uint64(42)
	goldenFullKeys    = []int{-9, 0, 7, 1 << 40}
	goldenFullVals    = []int{90, 0, -7, 12345}
)

// TestFullGoldenCheckpoint: the golden checkpoint verifies and reads back
// exactly, and WriteFull writes byte-identical bytes from the same Backup.
func TestFullGoldenCheckpoint(t *testing.T) {
	golden, err := os.ReadFile(goldenFullPath)
	if err != nil {
		t.Fatal(err)
	}
	info, err := VerifyFile(goldenFullPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != FileFull || info.Codec != "int" || info.Version != goldenFullVersion ||
		info.Count != uint64(len(goldenFullKeys)) || info.Size != int64(len(golden)) {
		t.Fatalf("golden info = %+v", info)
	}

	want, err := backupOf(goldenFullVersion, goldenFullKeys, goldenFullVals)
	if err != nil {
		t.Fatal(err)
	}
	s := mustStore[int](t, t.TempDir(), IntCodec{})
	got, err := s.ReadFull(goldenFullPath)
	if err != nil {
		t.Fatal(err)
	}
	backupEqual(t, got, want, "golden read")

	path, err := s.WriteFull(want)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "full-000000000000002a.pmb" {
		t.Fatalf("WriteFull named the file %s", filepath.Base(path))
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("checkpoint differs from the golden one:\n got %x\nwant %x", written, golden)
	}
}

// writeOldDiff writes by hand the incremental-diff file (kind 2) an older
// build wrote beside its fulls, in that build's layout and name: one
// changed and one deleted key between parent and version.
func writeOldDiff(t *testing.T, dir string, parent, version uint64) string {
	t.Helper()
	buf, err := appendHeader(nil, fileHeader{Kind: 2, Codec: "int", Version: version, Parent: parent, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 2) // changed
	buf = binary.LittleEndian.AppendUint64(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, 8)
	buf = binary.LittleEndian.AppendUint64(buf, 777)
	buf = append(buf, 3) // deleted
	buf = binary.LittleEndian.AppendUint64(buf, 2)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	path := filepath.Join(dir, fmt.Sprintf("diff-%016x-%016x%s", parent, version, fileExt))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOldDiffFileRejected: an older build's diff file is ErrCorrupt to
// VerifyFile and Load, and Replay skips it into SkippedCorrupt and still
// recovers newest full + WAL tail exactly. The WAL was only ever trimmed
// at a full, so every commit past that full is still in the log.
func TestOldDiffFileRejected(t *testing.T) {
	dir := t.TempDir()
	tm, m, s, w := walMap(t, dir, WALOptions{SegmentBytes: 1})
	want := map[int]int{}
	put := func(k, v int) {
		t.Helper()
		if _, err := m.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for k := 0; k < 4; k++ {
		put(k, 10+k)
	}
	pin, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.BackupAt(pin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteFull(full); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TrimTo(full.Version); err != nil {
		t.Fatal(err)
	}
	pin.Release()
	put(1, 777)
	if _, err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	delete(want, 2)
	diff := writeOldDiff(t, dir, full.Version, full.Version+2)
	put(5, 15)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := VerifyFile(diff); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyFile of a diff file = %v, want ErrCorrupt", err)
	}
	if _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load beside a diff file = %v, want ErrCorrupt", err)
	}
	m2, info := replayInto(t, dir)
	if len(info.SkippedCorrupt) != 1 || info.SkippedCorrupt[0] != diff {
		t.Fatalf("SkippedCorrupt = %v, want exactly %s", info.SkippedCorrupt, diff)
	}
	if info.CheckpointVersion != full.Version || info.Applied != 3 {
		t.Fatalf("replay info = %+v, want checkpoint %d and 3 records applied", info, full.Version)
	}
	mapEquals(t, m2, want, "replay past a diff file")
}
