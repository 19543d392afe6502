package persistmap

import (
	"bytes"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/persistmap/walsync"
)

// goldenPath is a WAL segment written by the record encoder and daemon
// that preceded the handle redo log (one Tx.Defer hook and one channel
// per record), from goldenOps on a fresh default TM. It pins the on-disk
// format byte for byte.
const goldenPath = "testdata/golden-int.wal"

// goldenOps is the fixed commit sequence behind testdata/golden-int.wal:
// single puts, an overwrite, a multi-op transaction with a delete and a
// repeated key, a delete, a no-op delete that logs nothing, and extreme
// keys and values. On a fresh default TM it commits at versions 1..7.
func goldenOps(t *testing.T, tm *core.TM, m *Map[int]) map[int]int {
	t.Helper()
	steps := []func(tx *core.Tx){
		func(tx *core.Tx) { m.PutTx(tx, 1, 100) },
		func(tx *core.Tx) { m.PutTx(tx, 2, 200) },
		func(tx *core.Tx) { m.PutTx(tx, 1, 101) },
		func(tx *core.Tx) {
			m.PutTx(tx, 3, 300)
			m.PutTx(tx, 4, 400)
			m.DeleteTx(tx, 2)
			m.PutTx(tx, -5, -500)
			m.PutTx(tx, 3, 301)
		},
		func(tx *core.Tx) { m.DeleteTx(tx, 4) },
		func(tx *core.Tx) { m.DeleteTx(tx, 99) },
		func(tx *core.Tx) { m.PutTx(tx, math.MaxInt64, math.MinInt64) },
		func(tx *core.Tx) { m.PutTx(tx, math.MinInt64, 7) },
	}
	for _, step := range steps {
		if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
			step(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return map[int]int{1: 101, 3: 301, -5: -500, math.MaxInt64: math.MinInt64, math.MinInt64: 7}
}

// TestWALGoldenSegment: the golden segment passes strict verification and
// replays to goldenOps' map, and the same commits written through the
// current redo log and daemon produce a byte-identical segment.
func TestWALGoldenSegment(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	info, err := VerifyWALSegment(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Codec != "int" || info.Records != 7 || info.Ops != 11 || info.MinVersion != 1 || info.MaxVersion != 7 {
		t.Fatalf("golden info = %+v, want 7 int records of 11 ops at versions 1..7", info)
	}

	dir := t.TempDir()
	tm, m, _, w := walMap(t, dir, WALOptions{})
	want := goldenOps(t, tm, m)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(walsync.SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("segment differs from the golden one:\n got %x\nwant %x", written, golden)
	}

	replayDir := t.TempDir()
	if err := os.WriteFile(walsync.SegmentPath(replayDir, 1), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, rinfo := replayInto(t, replayDir)
	mapEquals(t, m2, want, "golden replay")
	if rinfo.Records != 7 || rinfo.Applied != 7 || rinfo.TornTail {
		t.Fatalf("golden replay info = %+v", rinfo)
	}
}
