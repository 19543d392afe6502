package walsync

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// syncStaller stalls exactly one armed fsync (no error), signalling the
// test the moment the stall begins.
type syncStaller struct {
	mu      sync.Mutex
	armed   bool
	started chan struct{}
	stall   time.Duration
}

func (s *syncStaller) arm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = true
}

func (s *syncStaller) Fault(n int, op faultfs.OpKind, path string) *faultfs.Fault {
	if op != faultfs.OpSync {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return nil
	}
	s.armed = false
	close(s.started)
	return &faultfs.Fault{Delay: s.stall}
}

// TestGroupCommitBackpressureUnderSyncStall is the slow-disk regression
// fence: an fsync stall must translate into backpressure — records
// arriving during the stalled sync queue up and are covered by ONE later
// fsync — and never into an error, a dropped ack, or a lost record. The
// stalled schedule is exactly the condition group commit exists for, so
// the batch formed behind the stall is the test's witness.
func TestGroupCommitBackpressureUnderSyncStall(t *testing.T) {
	staller := &syncStaller{started: make(chan struct{}), stall: 80 * time.Millisecond}
	ffs := faultfs.New(staller)
	d, err := Start(Config{Dir: "wal", Header: []byte("HDR!"), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}

	// One durable record before the stall.
	if err := d.Wait(d.Append([]byte("a0a0"))); err != nil {
		t.Fatalf("pre-stall append: %v", err)
	}

	// Arm, append the record whose fsync will stall, and wait until the
	// stall is underway (the injector signals from inside the sync).
	staller.arm()
	tickets := []uint64{d.Append([]byte("a1a1"))}
	<-staller.started

	// These three arrive while the fsync is stalled: the daemon must hold
	// them and cover all of them with the next sync.
	for i := 0; i < 3; i++ {
		tickets = append(tickets, d.Append([]byte(fmt.Sprintf("b%db%d", i, i))))
	}
	for i, tk := range tickets {
		if err := d.Wait(tk); err != nil {
			t.Fatalf("ack %d under stall: %v", i, err)
		}
	}

	st := d.Stats()
	if st.Records != 5 {
		t.Fatalf("synced records = %d, want 5", st.Records)
	}
	if st.MaxBatch < 3 {
		t.Fatalf("max batch = %d, want >= 3 (the stall-backed batch)", st.MaxBatch)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Every byte is durable in append order: a crash right now loses
	// nothing.
	img, _ := ffs.CrashImage(ffs.Ops(), 0)
	data, err := faultfs.ReadFile(img, SegmentPath("wal", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), "HDR!a0a0a1a1b0b0b1b1b2b2"; got != want {
		t.Fatalf("post-stall segment = %q, want %q", got, want)
	}
}
