package walsync

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
)

// collect waits on every ticket in order and returns the verdicts.
func collect(d *Daemon, tickets []uint64) []error {
	errs := make([]error, len(tickets))
	for i, tk := range tickets {
		errs[i] = d.Wait(tk)
	}
	return errs
}

// TestDaemonBatching drives the group-commit property deterministically:
// the BeforeSync hook parks the daemon inside the first batch's sync
// while four more records enqueue, so the second fsync must cover all
// four at once.
func TestDaemonBatching(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan int, 8)
	d, err := Start(Config{
		Dir:    t.TempDir(),
		Header: []byte("hdr"),
		BeforeSync: func(records int) bool {
			entered <- records
			<-gate
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := d.Append([]byte("rec-0"))
	if got := <-entered; got != 1 {
		t.Fatalf("first batch has %d records, want 1", got)
	}
	// The daemon is parked pre-fsync; these four pile up in the queue.
	var rest []uint64
	for i := 1; i <= 4; i++ {
		rest = append(rest, d.Append([]byte("rec-n")))
	}
	gate <- struct{}{}
	if err := d.Wait(first); err != nil {
		t.Fatal(err)
	}
	if got := <-entered; got != 4 {
		t.Fatalf("second batch has %d records, want 4", got)
	}
	gate <- struct{}{}
	for i, err := range collect(d, rest) {
		if err != nil {
			t.Fatalf("record %d: %v", i+1, err)
		}
	}
	st := d.Stats()
	if st.Records != 5 || st.Batches != 2 || st.MaxBatch != 4 {
		t.Fatalf("stats = %+v, want 5 records in 2 batches, max 4", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonMaxBatch caps the drain: with MaxBatch 2 and five queued
// records, no fsync may cover more than two.
func TestDaemonMaxBatch(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan int, 8)
	d, err := Start(Config{
		Dir:      t.TempDir(),
		MaxBatch: 2,
		BeforeSync: func(records int) bool {
			entered <- records
			<-gate
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := d.Append([]byte("a"))
	if got := <-entered; got != 1 {
		t.Fatalf("first batch has %d records, want 1", got)
	}
	var rest []uint64
	for i := 0; i < 5; i++ {
		rest = append(rest, d.Append([]byte("b")))
	}
	gate <- struct{}{}
	if err := d.Wait(first); err != nil {
		t.Fatal(err)
	}
	for drained := 0; drained < 5; {
		n := <-entered
		if n > 2 {
			t.Fatalf("batch of %d records exceeds MaxBatch 2", n)
		}
		drained += n
		gate <- struct{}{}
	}
	for _, err := range collect(d, rest) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.MaxBatch > 2 {
		t.Fatalf("stats.MaxBatch = %d, want <= 2", st.MaxBatch)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonRollAndRestart seals a segment per record (SegmentBytes 1),
// then restarts the daemon and checks it opens a FRESH segment after the
// highest on disk instead of appending to a crashed tail.
func TestDaemonRollAndRestart(t *testing.T) {
	dir := t.TempDir()
	hdr := []byte("H")
	d, err := Start(Config{Dir: dir, Header: hdr, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Wait(d.Append([]byte{byte('a' + i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ScanSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each record rolled the segment it landed in, so records sit in
	// segments 1..3 and segment 4 is the open-but-empty one.
	if len(segs) != 4 {
		t.Fatalf("%d segments, want 4", len(segs))
	}
	for i, sg := range segs {
		data, err := os.ReadFile(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		want := string(hdr)
		if i < 3 {
			want += string(byte('a' + i))
		}
		if string(data) != want {
			t.Fatalf("segment %d = %q, want %q", sg.Seq, data, want)
		}
	}

	d2, err := Start(Config{Dir: dir, Header: hdr, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.CurrentSeq(); got != 5 {
		t.Fatalf("restart opened segment %d, want 5", got)
	}
	if err := d2.Wait(d2.Append([]byte("z"))); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// The pre-restart segments are byte-identical — never appended to.
	for i, sg := range segs[:3] {
		data, err := os.ReadFile(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(hdr)+string(byte('a'+i)) {
			t.Fatalf("restart touched sealed segment %d", sg.Seq)
		}
	}
}

// TestDaemonCrashTruncates injects a kill mid-batch and checks the three
// crash promises: unsynced bytes vanish (the file reverts to its synced
// prefix), the in-flight and queued committers get ErrClosed, and the
// daemon refuses everything afterwards.
func TestDaemonCrashTruncates(t *testing.T) {
	dir := t.TempDir()
	hdr := []byte("HH")
	crashNext := false
	d, err := Start(Config{
		Dir:        dir,
		Header:     hdr,
		BeforeSync: func(int) bool { return crashNext },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(d.Append([]byte("keep"))); err != nil {
		t.Fatal(err)
	}
	crashNext = true
	if err := d.Wait(d.Append([]byte("lost"))); !errors.Is(err, ErrClosed) {
		t.Fatalf("crashed batch acked %v, want ErrClosed", err)
	}
	if err := d.Wait(d.Append([]byte("after"))); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-crash append acked %v, want ErrClosed", err)
	}
	if err := d.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Close = %v, want ErrClosed", err)
	}
	data, err := os.ReadFile(SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(hdr)+"keep" {
		t.Fatalf("segment after crash = %q, want synced prefix %q", data, string(hdr)+"keep")
	}
}

// TestScanSegmentsRejectsStrays: a .wal file the daemon did not name is an
// error, not a silent skip.
func TestScanSegmentsRejectsStrays(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/stray.wal", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanSegments(dir); err == nil {
		t.Fatal("ScanSegments accepted a stray .wal name")
	}
}

// TestTickets pins Wait's verdicts around the ticket's life: ticket 0
// names no record, a staged record's ticket is durable once waited on, the
// caller may reuse its buffer as soon as Append returns, and a closed
// daemon refuses records with ErrClosed.
func TestTickets(t *testing.T) {
	dir := t.TempDir()
	d, err := Start(Config{Dir: dir, Header: []byte("H")})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(0); err != nil {
		t.Fatalf("Wait(0) = %v", err)
	}
	rec := []byte("one")
	first := d.Append(rec)
	copy(rec, "XXX") // Append staged a copy
	second := d.Append([]byte("two"))
	if first != 1 || second != 2 {
		t.Fatalf("tickets %d, %d, want 1, 2", first, second)
	}
	if err := d.Wait(second); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(first); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(d.Append([]byte("late"))); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close: %v, want ErrClosed", err)
	}
	data, err := os.ReadFile(SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "Honetwo" {
		t.Fatalf("segment = %q, want %q", data, "Honetwo")
	}
}

// TestStagingHoldsOneRecordPerCommitter pins the bound the package
// comment states: durable committers block in Wait, so however slow the
// fsync, no batch — no staging buffer — holds more records than there are
// committers. Every record still lands, in one write per batch.
func TestStagingHoldsOneRecordPerCommitter(t *testing.T) {
	const committers, each = 8, 25
	ffs := faultfs.New(slowSync{200 * time.Microsecond})
	d, err := Start(Config{Dir: "wal", FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := d.Wait(d.Append([]byte{byte('a' + g)})); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Records != committers*each || st.MaxBatch > committers {
		t.Fatalf("stats %+v: want %d records, batches of at most %d", st, committers*each, committers)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := faultfs.ReadFile(ffs, SegmentPath("wal", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != committers*each {
		t.Fatalf("segment holds %d bytes, want %d", len(data), committers*each)
	}
}

// slowSync delays every file fsync.
type slowSync struct{ d time.Duration }

func (s slowSync) Fault(n int, op faultfs.OpKind, path string) *faultfs.Fault {
	if op == faultfs.OpSync {
		return &faultfs.Fault{Delay: s.d}
	}
	return nil
}

// TestAppendWaitAllocs: with the staging buffers warm, a durable append
// and its wait allocate nothing.
func TestAppendWaitAllocs(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("allocation counts are only meaningful without the race runtime")
	}
	d, err := Start(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := []byte("0123456789abcdef0123456789abcdef")
	for i := 0; i < 10; i++ {
		if err := d.Wait(d.Append(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := d.Wait(d.Append(rec)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("append+wait allocates %.2f objects/op, want 0", allocs)
	}
}
