package core

import "testing"

func TestSemanticsStringAndValid(t *testing.T) {
	tests := []struct {
		sem      Semantics
		str      string
		valid    bool
		readOnly bool
	}{
		{Classic, "classic", true, false},
		{Elastic, "elastic", true, false},
		{Snapshot, "snapshot", true, true},
		{Semantics(0), "unknown", false, false},
		{Semantics(99), "unknown", false, false},
	}
	for _, tt := range tests {
		if got := tt.sem.String(); got != tt.str {
			t.Errorf("Semantics(%d).String() = %q, want %q", int(tt.sem), got, tt.str)
		}
		if got := tt.sem.Valid(); got != tt.valid {
			t.Errorf("Semantics(%d).Valid() = %v, want %v", int(tt.sem), got, tt.valid)
		}
		if got := tt.sem.ReadOnly(); got != tt.readOnly {
			t.Errorf("Semantics(%d).ReadOnly() = %v, want %v", int(tt.sem), got, tt.readOnly)
		}
	}
}

func TestAbortReasonStrings(t *testing.T) {
	for r := AbortReadInvalid; r <= AbortExplicit; r++ {
		if r.String() == "unknown" {
			t.Errorf("reason %d has no name", int(r))
		}
	}
	if AbortReason(0).String() != "unknown" || AbortReason(99).String() != "unknown" {
		t.Error("out-of-range reasons must be unknown")
	}
}

func TestDecisionStrings(t *testing.T) {
	tests := map[Decision]string{
		DecisionWait:       "wait",
		DecisionAbortSelf:  "abort-self",
		DecisionAbortOther: "abort-other",
		Decision(0):        "unknown",
	}
	for d, want := range tests {
		if got := d.String(); got != want {
			t.Errorf("Decision(%d).String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventBegin, EventRead, EventWrite, EventCut,
		EventCommit, EventAbort, EventRollback}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" {
			t.Errorf("kind %d has no name", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if EventKind(99).String() != "unknown" {
		t.Error("out-of-range kind must be unknown")
	}
}

func TestSemanticsErrorMessage(t *testing.T) {
	err := &SemanticsError{Sem: Snapshot, Op: "store"}
	if err.Error() == "" {
		t.Fatal("empty message")
	}
	if !err.Is(ErrWriteInSnapshot) {
		t.Fatal("store-in-snapshot must match ErrWriteInSnapshot")
	}
	other := &SemanticsError{Sem: Elastic, Op: "store"}
	if other.Is(ErrWriteInSnapshot) {
		t.Fatal("elastic error must not match ErrWriteInSnapshot")
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{
		Attempts: 10,
		Aborts:   map[AbortReason]uint64{AbortValidation: 2, AbortKilled: 1},
	}
	if got := s.TotalAborts(); got != 3 {
		t.Fatalf("TotalAborts = %d", got)
	}
	if got := s.AbortRate(); got != 0.3 {
		t.Fatalf("AbortRate = %v", got)
	}
	if (Stats{}).AbortRate() != 0 {
		t.Fatal("empty stats abort rate")
	}
}

// TestOverlappingMultiCellCommitsProgress: many transactions writing
// overlapping multi-cell sets commit without deadlock thanks to global
// lock ordering.
func TestOverlappingMultiCellCommitsProgress(t *testing.T) {
	tm := New()
	const n = 6
	cells := make([]*TypedCell[int], n)
	for i := range cells {
		cells[i] = NewTypedCell(tm, 0)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 100; i++ {
				// Each tx writes three cells chosen to overlap with
				// every other worker's choices, in clashing orders.
				a, b, c := (w+i)%n, (w+i+1)%n, (w+i+2)%n
				err := tm.Atomically(Classic, func(tx *Tx) error {
					for _, idx := range []int{c, a, b} {
						v := cells[idx].Load(tx)
						cells[idx].Store(tx, v+1)
					}
					return nil
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	mustAtomically(t, tm, Classic, func(tx *Tx) error {
		total = 0
		for _, c := range cells {
			v := c.Load(tx)
			total += v
		}
		return nil
	})
	if total != 4*100*3 {
		t.Fatalf("total increments %d, want %d", total, 4*100*3)
	}
}
