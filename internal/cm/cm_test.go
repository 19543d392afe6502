package cm

import (
	"sync"
	"testing"

	"repro/internal/core"
)

func TestNewRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if m == nil {
			t.Fatalf("New(%q) returned nil", name)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestPoliciesMakeProgress runs a deliberately conflicting workload under
// every policy and requires full completion (no livelock/deadlock) with a
// conserved invariant. The hot spot is hammered through BOTH record shapes
// — a ref-shaped TypedCell[any] and a word-shaped TypedCell[int] — because
// arbitration happens in the shared engine below the typed skin: a policy
// must see identical conflicts (and the same owner accessors) whichever
// representation the transactions touched.
func TestPoliciesMakeProgress(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			policy, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			tm := core.New(core.WithContentionManager(policy))
			// Two hot cells hammered by all workers: worst-case conflicts,
			// split across the ref and word shapes.
			hot := core.NewTypedCell[any](tm, 0)
			hotTyped := core.NewTypedCell(tm, 0)
			const (
				workers = 4
				incs    = 150
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < incs; i++ {
						err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
							if (w+i)%2 == 0 {
								v, _ := hot.Load(tx).(int)
								hot.Store(tx, v+1)
								hotTyped.Store(tx, hotTyped.Load(tx)+1)
							} else {
								hotTyped.Store(tx, hotTyped.Load(tx)+1)
								v, _ := hot.Load(tx).(int)
								hot.Store(tx, v+1)
							}
							return nil
						})
						if err != nil {
							t.Errorf("increment: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			var got, gotTyped int
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				got, _ = hot.Load(tx).(int)
				gotTyped = hotTyped.Load(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != workers*incs || gotTyped != workers*incs {
				t.Fatalf("hot counters = %d/%d, want %d for both", got, gotTyped, workers*incs)
			}
		})
	}
}

// The deterministic typed-path arbitration contract test (a held lock
// observed through purely typed operations must reach Arbitrate with a
// live owner handle) lives in internal/core's cm_typed_test.go, where the
// white-box lock control needed to force the conflict exists.

// TestDecisions spot-checks each policy's arbitration logic using two live
// transactions. The handles come from separate scratch TMs: the runtime
// pools handles per TM, so two completed transactions of one TM would
// alias the same recycled handle. Distinct TMs pin distinct handles, and
// the policies only consult age/identity/karma, never the owning TM. The
// second TM commits once before younger starts, so younger's age (its
// first clock sample) is strictly larger than older's.
func TestDecisions(t *testing.T) {
	var older, younger *core.Tx
	_ = core.New().Atomically(core.Classic, func(tx *core.Tx) error { older = tx; return nil })
	tm2 := core.New()
	bump := core.NewTypedCell(tm2, 0)
	if err := tm2.Atomically(core.Classic, func(tx *core.Tx) error { bump.Store(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	_ = tm2.Atomically(core.Classic, func(tx *core.Tx) error { younger = tx; return nil })
	if older.Age() >= younger.Age() {
		t.Fatalf("ages: older %d, younger %d; want older < younger", older.Age(), younger.Age())
	}

	if d := (Suicide{}).Arbitrate(younger, older, 0); d != core.DecisionAbortSelf {
		t.Errorf("suicide: %v", d)
	}
	if d := (Aggressive{}).Arbitrate(younger, older, 0); d != core.DecisionAbortOther {
		t.Errorf("aggressive vs owner: %v", d)
	}
	if d := (Aggressive{}).Arbitrate(younger, nil, 0); d != core.DecisionWait {
		t.Errorf("aggressive vs nil owner: %v", d)
	}
	p := NewPolite(2)
	if d := p.Arbitrate(younger, older, 0); d != core.DecisionWait {
		t.Errorf("polite early: %v", d)
	}
	if d := p.Arbitrate(younger, older, 5); d != core.DecisionAbortOther {
		t.Errorf("polite late: %v", d)
	}
	b := NewBackoff(2)
	if d := b.Arbitrate(younger, older, 1); d != core.DecisionWait {
		t.Errorf("backoff early: %v", d)
	}
	if d := b.Arbitrate(younger, older, 2); d != core.DecisionAbortSelf {
		t.Errorf("backoff late: %v", d)
	}
	if d := (Timestamp{}).Arbitrate(older, younger, 0); d != core.DecisionAbortOther {
		t.Errorf("timestamp elder: %v", d)
	}
	if d := (Timestamp{}).Arbitrate(younger, older, 0); d != core.DecisionWait {
		t.Errorf("timestamp younger: %v", d)
	}
	if d := (Greedy{}).Arbitrate(younger, older, 20); d != core.DecisionAbortSelf {
		t.Errorf("greedy impatient: %v", d)
	}

	k := NewKarma()
	// Equal karma: wait. After the younger accrues priority, it may kill.
	if d := k.Arbitrate(younger, older, 0); d != core.DecisionWait {
		t.Errorf("karma equal: %v", d)
	}
	younger.AddPriority(100)
	if d := k.Arbitrate(younger, older, 0); d != core.DecisionAbortOther {
		t.Errorf("karma rich: %v", d)
	}
}

func TestKarmaOnAbortAccumulates(t *testing.T) {
	tm := core.New()
	var handle *core.Tx
	_ = tm.Atomically(core.Classic, func(tx *core.Tx) error { handle = tx; return nil })
	before := handle.Priority()
	NewKarma().OnAbort(handle)
	if handle.Priority() < before {
		t.Fatal("karma decreased on abort")
	}
}

// TestAgeIsFirstAttemptClock pins what the age policies order by: a
// call's age is the clock value its first attempt sampled, kept across
// retries; a call that starts after a commit is strictly younger; two
// calls with no commit between their starts tie, and elder breaks the tie
// by ID.
func TestAgeIsFirstAttemptClock(t *testing.T) {
	tm := core.New()
	c := core.NewTypedCell(tm, 0)
	bump := func() {
		t.Helper()
		if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
			c.Store(tx, c.Load(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	bump()

	// A retried call keeps the age of its first attempt, even though a
	// commit in between moved the clock its retry samples.
	var ages []uint64
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		ages = append(ages, tx.Age())
		if tx.Attempt() == 1 {
			bump() // an independent transaction on another pooled handle
			tx.Restart()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ages) != 2 || ages[0] != ages[1] {
		t.Fatalf("ages across a retry = %v, want two equal values", ages)
	}
	if ages[0] >= tm.ClockNow() {
		t.Fatalf("first-attempt age %d not below the clock %d after a commit", ages[0], tm.ClockNow())
	}

	// A call that starts after a commit is strictly younger.
	var before, after uint64
	_ = tm.Atomically(core.Classic, func(tx *core.Tx) error { before = tx.Age(); return nil })
	bump()
	_ = tm.Atomically(core.Classic, func(tx *core.Tx) error { after = tx.Age(); return nil })
	if after <= before {
		t.Fatalf("age after a commit %d, before it %d; want strictly larger", after, before)
	}

	// Two live calls with no commit between their starts tie; elder
	// orders them by ID, one way only.
	if err := tm.Atomically(core.Classic, func(outer *core.Tx) error {
		return tm.Atomically(core.Classic, func(inner *core.Tx) error {
			if outer.Age() != inner.Age() {
				t.Errorf("ages %d and %d, want a tie", outer.Age(), inner.Age())
			}
			if outer.ID() == inner.ID() {
				t.Fatalf("two live handles share ID %d", outer.ID())
			}
			first, second := outer, inner
			if inner.ID() < outer.ID() {
				first, second = inner, outer
			}
			if !elder(first, second) || elder(second, first) {
				t.Errorf("elder does not break an age tie by ID")
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
}
