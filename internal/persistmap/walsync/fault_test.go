package walsync

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// syncKiller fails every file fsync while armed. Arming after setup lets
// a test poison exactly the batch it chooses.
type syncKiller struct {
	mu    sync.Mutex
	armed bool
}

func (s *syncKiller) arm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = true
}

func (s *syncKiller) Fault(n int, op faultfs.OpKind, path string) *faultfs.Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.armed && op == faultfs.OpSync {
		return &faultfs.Fault{Err: faultfs.ErrIO}
	}
	return nil
}

// TestFsyncFailurePoisons is the fsyncgate regression fence: a failed
// segment fsync must fail every ack in the batch, poison the daemon
// permanently, and never be followed by an ack claiming durability for
// the dropped bytes — even though a RETRIED fsync on the same file would
// report success.
func TestFsyncFailurePoisons(t *testing.T) {
	killer := &syncKiller{}
	ffs := faultfs.New(killer)
	lost := make(chan error, 1)
	d, err := Start(Config{
		Dir:              "wal",
		Header:           []byte("HDR!"),
		FS:               ffs,
		OnDurabilityLost: func(e error) { lost <- e },
	})
	if err != nil {
		t.Fatal(err)
	}

	// One durable record before the fault.
	if err := d.Wait(d.Append([]byte("aaaa"))); err != nil {
		t.Fatalf("pre-fault append: %v", err)
	}

	killer.arm()
	err = d.Wait(d.Append([]byte("bbbb")))
	if !errors.Is(err, ErrDurabilityLost) || !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("poisoned ack error = %v, want ErrDurabilityLost wrapping ErrIO", err)
	}

	// The callback fired exactly once, with the same verdict.
	select {
	case e := <-lost:
		if !errors.Is(e, ErrDurabilityLost) {
			t.Fatalf("OnDurabilityLost(%v)", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDurabilityLost never fired")
	}

	// The daemon is sticky-poisoned: Err reports it, later appends fail
	// with it, Close returns it.
	if e := d.Err(); !errors.Is(e, ErrDurabilityLost) {
		t.Fatalf("Err() = %v", e)
	}
	if e := d.Wait(d.Append([]byte("cccc"))); !errors.Is(e, ErrDurabilityLost) {
		t.Fatalf("post-poison append: %v", e)
	}
	if e := d.Close(); !errors.Is(e, ErrDurabilityLost) {
		t.Fatalf("Close() = %v", e)
	}
	select {
	case <-lost:
		t.Fatal("OnDurabilityLost fired more than once")
	default:
	}

	// Binding check on the simulated platter: a crash now must show the
	// acked prefix and nothing of the failed batch. (In the fsyncgate
	// model the kernel already dropped "bbbb" — the daemon acking it
	// after an fsync retry would have been the lie.)
	img, _ := ffs.CrashImage(ffs.Ops(), 0)
	data, err := faultfs.ReadFile(img, SegmentPath("wal", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != "HDR!aaaa" {
		t.Fatalf("post-crash segment = %q, want %q", got, "HDR!aaaa")
	}
	if strings.Contains(string(data), "bbbb") {
		t.Fatal("dropped bytes resurfaced in the crash image")
	}
}

// TestRollFailurePoisons: failing to open the next segment is a
// durability loss too — no future record could ever be synced.
func TestRollFailurePoisons(t *testing.T) {
	ffs := faultfs.New(nil)
	d, err := Start(Config{Dir: "wal", FS: ffs, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentBytes=1: every batch triggers a roll. Fail the roll's
	// create.
	if err := d.Wait(d.Append([]byte("a"))); err != nil {
		t.Fatalf("append: %v", err)
	}
	ffs.SetInjector(failKind{kind: faultfs.OpCreate})
	// The first append's roll opened segment 2 before its ack; this
	// append's roll hits the injected create failure. Its record was
	// synced first, so it is acked durable.
	if err := d.Wait(d.Append([]byte("b"))); err != nil {
		t.Fatalf("append whose roll failed, after its sync: %v", err)
	}
	if e := d.Wait(d.Append([]byte("c"))); !errors.Is(e, ErrDurabilityLost) {
		t.Fatalf("append after failed roll: %v", e)
	}
	if e := d.Close(); !errors.Is(e, ErrDurabilityLost) {
		t.Fatalf("Close() = %v", e)
	}
}

// failKind fails every op of one kind.
type failKind struct{ kind faultfs.OpKind }

func (f failKind) Fault(n int, op faultfs.OpKind, path string) *faultfs.Fault {
	if op == f.kind {
		return &faultfs.Fault{Err: faultfs.ErrNoSpace}
	}
	return nil
}
