package core

import "testing"

// TestPinVersionsOrderAcrossCommit is the Version() contract test: two
// pins taken across a commit order correctly — strictly, since the commit
// advanced the clock between them — and each pin reads the state of its
// own instant. The ordering is what lets checkpoints, and the WAL
// records they supersede, be sequenced by pin version alone, without
// reaching into any checkpoint payload.
func TestPinVersionsOrderAcrossCommit(t *testing.T) {
	tm := New()
	c := NewTypedCell(tm, 100)

	p1, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Release()

	if err := tm.Atomically(Classic, func(tx *Tx) error {
		c.Store(tx, 200)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	p2, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Release()

	if p1.Version() >= p2.Version() {
		t.Fatalf("pins across a commit must order strictly: %d then %d", p1.Version(), p2.Version())
	}
	for _, tc := range []struct {
		pin  *SnapshotPin
		want int
	}{{p1, 100}, {p2, 200}} {
		var got int
		if err := tc.pin.Atomically(func(tx *Tx) error {
			got = c.Load(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("pin at version %d read %d, want %d", tc.pin.Version(), got, tc.want)
		}
	}

	// Without an intervening commit, a later pin never orders BELOW an
	// earlier one (equality is allowed: the clock did not move).
	p3, err := tm.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Release()
	if p3.Version() < p2.Version() {
		t.Fatalf("later pin ordered below earlier one: %d then %d", p2.Version(), p3.Version())
	}
}
