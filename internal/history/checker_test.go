package history

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// runRecorded builds a TM with a collector and runs fn against it.
func runRecorded(t *testing.T, fn func(tm *core.TM)) *ExecLog {
	t.Helper()
	col := NewCollector()
	tm := core.New(core.WithRecorder(col))
	fn(tm)
	log, err := Analyze(col.Events())
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestCheckerAcceptsSerialRun(t *testing.T) {
	log := runRecorded(t, func(tm *core.TM) {
		c := core.NewTypedCell(tm, 0)
		for i := 0; i < 5; i++ {
			_ = tm.Atomically(core.Classic, func(tx *core.Tx) error {
				v := c.Load(tx)
				c.Store(tx, v+1)
				return nil
			})
		}
		_ = tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
			_ = c.Load(tx)
			return nil
		})
	})
	if len(log.Txs) != 6 {
		t.Fatalf("committed %d txs, want 6", len(log.Txs))
	}
	if err := log.CheckConsistency(2); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerAcceptsConcurrentMixedRun(t *testing.T) {
	log := runRecorded(t, func(tm *core.TM) {
		cells := make([]*core.TypedCell[int], 8)
		for i := range cells {
			cells[i] = core.NewTypedCell(tm, 0)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := seed*2654435761 + 5
				next := func(n int) int {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return int(rng % uint64(n))
				}
				for i := 0; i < 100; i++ {
					switch next(3) {
					case 0:
						_ = tm.Atomically(core.Classic, func(tx *core.Tx) error {
							a, b := cells[next(8)], cells[next(8)]
							av := a.Load(tx)
							bv := b.Load(tx)
							a.Store(tx, av+1)
							b.Store(tx, bv-1)
							return nil
						})
					case 1:
						_ = tm.Atomically(core.Elastic, func(tx *core.Tx) error {
							for _, c := range cells {
								_ = c.Load(tx)
							}
							cells[next(8)].Store(tx, next(100))
							return nil
						})
					default:
						_ = tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
							for _, c := range cells {
								_ = c.Load(tx)
							}
							return nil
						})
					}
				}
			}(uint64(w + 1))
		}
		wg.Wait()
	})
	if err := log.CheckConsistency(2); err != nil {
		t.Fatal(err)
	}
}

// TestCheckerRejectsTornRead hand-crafts an inconsistent history: a
// classic transaction that read versions which never coexisted.
func TestCheckerRejectsTornRead(t *testing.T) {
	events := []core.Event{
		// Writer A commits cell 1 at version 1.
		{Kind: core.EventBegin, TxID: 1, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 1, Attempt: 1, Cell: 1},
		{Kind: core.EventCommit, TxID: 1, Attempt: 1, Sem: core.Classic, Version: 1},
		// Writer B commits cell 2 at version 2.
		{Kind: core.EventBegin, TxID: 2, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 2, Attempt: 1, Cell: 2},
		{Kind: core.EventCommit, TxID: 2, Attempt: 1, Sem: core.Classic, Version: 2},
		// Writer C overwrites cell 1 at version 3.
		{Kind: core.EventBegin, TxID: 3, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 3, Attempt: 1, Cell: 1},
		{Kind: core.EventCommit, TxID: 3, Attempt: 1, Sem: core.Classic, Version: 3},
		// Torn reader: cell 1 at version 1 (valid only before 3) and
		// claims commit at version 3 where cell1@1 is stale.
		{Kind: core.EventBegin, TxID: 4, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventRead, TxID: 4, Attempt: 1, Cell: 1, Version: 1},
		{Kind: core.EventRead, TxID: 4, Attempt: 1, Cell: 2, Version: 2},
		{Kind: core.EventCommit, TxID: 4, Attempt: 1, Sem: core.Classic, Version: 3},
	}
	log, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	err = log.CheckConsistency(2)
	if err == nil {
		t.Fatal("checker accepted a torn read")
	}
	if !strings.Contains(err.Error(), "tx 4") {
		t.Fatalf("error should blame tx 4: %v", err)
	}
}

// TestCheckerRejectsDuplicateWriteVersion catches a broken clock.
func TestCheckerRejectsDuplicateWriteVersion(t *testing.T) {
	events := []core.Event{
		{Kind: core.EventBegin, TxID: 1, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 1, Attempt: 1, Cell: 1},
		{Kind: core.EventCommit, TxID: 1, Attempt: 1, Sem: core.Classic, Version: 7},
		{Kind: core.EventBegin, TxID: 2, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 2, Attempt: 1, Cell: 1},
		{Kind: core.EventCommit, TxID: 2, Attempt: 1, Sem: core.Classic, Version: 7},
	}
	if _, err := Analyze(events); err == nil {
		t.Fatal("duplicate write version not rejected")
	}
}

// TestCheckerElasticCutHistoryH replays the paper's section 4.2 history H
// as an elastic execution and checks it is accepted as cut pieces while
// the same reads as one classic transaction are rejected.
//
//	H = r(h)i, r(n)i, r(h)j, r(n)j, w(h)j, r(t)i, w(n)i
//
// Cells: h=1, n=2, t=3. Transaction j commits at version 1 (writing h).
// Transaction i reads h,n at version 0, then t after j's commit, then
// writes n at version 2.
func TestCheckerElasticCutHistoryH(t *testing.T) {
	base := []core.Event{
		// j: reads h, n; writes h; commits at version 1.
		{Kind: core.EventBegin, TxID: 20, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventRead, TxID: 20, Attempt: 1, Cell: 1, Version: 0},
		{Kind: core.EventRead, TxID: 20, Attempt: 1, Cell: 2, Version: 0},
		{Kind: core.EventWrite, TxID: 20, Attempt: 1, Cell: 1},
		{Kind: core.EventCommit, TxID: 20, Attempt: 1, Sem: core.Classic, Version: 1},
	}
	mk := func(sem core.Semantics) []core.Event {
		return append(append([]core.Event{}, base...),
			core.Event{Kind: core.EventBegin, TxID: 10, Attempt: 1, Sem: sem},
			core.Event{Kind: core.EventRead, TxID: 10, Attempt: 1, Cell: 1, Version: 0}, // r(h)i before w(h)j
			core.Event{Kind: core.EventRead, TxID: 10, Attempt: 1, Cell: 2, Version: 0}, // r(n)i
			core.Event{Kind: core.EventRead, TxID: 10, Attempt: 1, Cell: 3, Version: 0}, // r(t)i after j committed
			core.Event{Kind: core.EventWrite, TxID: 10, Attempt: 1, Cell: 2},            // w(n)i
			core.Event{Kind: core.EventCommit, TxID: 10, Attempt: 1, Sem: sem, Version: 2},
		)
	}

	// As elastic: accepted — the cut f(H) = {r(h) r(n)} {r(n') r(t) w(n)}.
	elasticLog, err := Analyze(mk(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	if err := elasticLog.CheckConsistency(2); err != nil {
		t.Fatalf("history H rejected under elastic semantics: %v", err)
	}

	// As classic: rejected — r(h)@0 is stale at i's commit point (j wrote
	// h at version 1 < i's commit 2), exactly the paper's observation
	// that H is not opaque/serializable as whole transactions.
	classicLog, err := Analyze(mk(core.Classic))
	if err != nil {
		t.Fatal(err)
	}
	if err := classicLog.CheckConsistency(2); err == nil {
		t.Fatal("history H accepted under classic semantics; it is not serializable")
	}
}

// TestCheckerElasticWindowTooNarrow: reads that require remembering three
// slots cannot be explained with window 1 when a conflicting write lands
// between them... but CAN be cut with a larger window when consistent.
func TestCheckerElasticOrderedPieces(t *testing.T) {
	// Elastic tx reads c1@0, c2@0; concurrent writer bumps c1 to v1;
	// elastic reads c3@0 (fine, c1 cut away), then c1@1 again.
	// Pieces must be orderable: they are (0, then >=1).
	events := []core.Event{
		{Kind: core.EventBegin, TxID: 30, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 30, Attempt: 1, Cell: 1},
		{Kind: core.EventCommit, TxID: 30, Attempt: 1, Sem: core.Classic, Version: 1},

		{Kind: core.EventBegin, TxID: 31, Attempt: 1, Sem: core.Elastic},
		{Kind: core.EventRead, TxID: 31, Attempt: 1, Cell: 1, Version: 0},
		{Kind: core.EventRead, TxID: 31, Attempt: 1, Cell: 2, Version: 0},
		{Kind: core.EventRead, TxID: 31, Attempt: 1, Cell: 3, Version: 0},
		{Kind: core.EventRead, TxID: 31, Attempt: 1, Cell: 1, Version: 1},
		{Kind: core.EventCommit, TxID: 31, Attempt: 1, Sem: core.Elastic, Version: 1},
	}
	log, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.CheckConsistency(1); err != nil {
		t.Fatalf("orderable pieces rejected: %v", err)
	}

	// Now force an impossible order: read c1@1 first, then a window
	// requiring instant < 1 on the same cells.
	bad := []core.Event{
		{Kind: core.EventBegin, TxID: 40, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 40, Attempt: 1, Cell: 1},
		{Kind: core.EventCommit, TxID: 40, Attempt: 1, Sem: core.Classic, Version: 1},
		{Kind: core.EventBegin, TxID: 41, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 41, Attempt: 1, Cell: 2},
		{Kind: core.EventCommit, TxID: 41, Attempt: 1, Sem: core.Classic, Version: 2},

		{Kind: core.EventBegin, TxID: 42, Attempt: 1, Sem: core.Elastic},
		// c1@1 is valid from instant 1 on; c2@0 is valid only before 2.
		// With window=2 both must hold simultaneously... [1,1] works.
		// Make it impossible: c2@0 invalid from 2, c1 read at version 1,
		// then c2 must still be pre-2: feasible. Use c2@0 then c2@... to
		// really break it, claim a read of version that never existed
		// inside a window conflicting with itself:
		{Kind: core.EventRead, TxID: 42, Attempt: 1, Cell: 1, Version: 1},
		{Kind: core.EventRead, TxID: 42, Attempt: 1, Cell: 2, Version: 0},
		{Kind: core.EventCommit, TxID: 42, Attempt: 1, Sem: core.Elastic, Version: 1},
	}
	log, err = Analyze(bad)
	if err != nil {
		t.Fatal(err)
	}
	// c1@1 valid [1,inf), c2@0 valid [0,1]: intersection {1} — accepted.
	if err := log.CheckConsistency(2); err != nil {
		t.Fatalf("feasible window rejected: %v", err)
	}

	// Truly impossible: c2@0 (valid [0,1]) read AFTER c3 forced the piece
	// instant past it.
	impossible := []core.Event{
		{Kind: core.EventBegin, TxID: 50, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 50, Attempt: 1, Cell: 2},
		{Kind: core.EventCommit, TxID: 50, Attempt: 1, Sem: core.Classic, Version: 1},
		{Kind: core.EventBegin, TxID: 51, Attempt: 1, Sem: core.Classic},
		{Kind: core.EventWrite, TxID: 51, Attempt: 1, Cell: 3},
		{Kind: core.EventCommit, TxID: 51, Attempt: 1, Sem: core.Classic, Version: 2},

		{Kind: core.EventBegin, TxID: 52, Attempt: 1, Sem: core.Elastic},
		// Window of 2: c3@2 (valid from 2) with c2@0 (valid [0,0]):
		// no common instant.
		{Kind: core.EventRead, TxID: 52, Attempt: 1, Cell: 3, Version: 2},
		{Kind: core.EventRead, TxID: 52, Attempt: 1, Cell: 2, Version: 0},
		{Kind: core.EventCommit, TxID: 52, Attempt: 1, Sem: core.Elastic, Version: 2},
	}
	log, err = Analyze(impossible)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.CheckConsistency(2); err == nil {
		t.Fatal("impossible elastic window accepted")
	}
}

func TestCollectorReset(t *testing.T) {
	col := NewCollector()
	col.Record(core.Event{Kind: core.EventBegin, TxID: 1})
	if len(col.Events()) != 1 {
		t.Fatal("event not recorded")
	}
	col.Reset()
	if len(col.Events()) != 0 {
		t.Fatal("reset did not clear events")
	}
}
