package txstruct

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// TestCrossStructureMove composes operations of two different structures
// (a list and a hash set) into one atomic move — the Bob-composes-Alice
// story of section 2.2 across structure types. Observers never see a
// value in both or in neither.
func TestCrossStructureMove(t *testing.T) {
	tm := core.New()
	list := NewList(tm, ListConfig{Parse: core.Elastic, Size: core.Snapshot})
	set := NewHashSet(tm, 8, ListConfig{Parse: core.Elastic, Size: core.Snapshot})

	const v = 42
	if _, err := list.Add(v); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inList := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				if inList {
					if list.RemoveTx(tx, v) {
						set.AddTx(tx, v)
					}
				} else {
					if set.RemoveTx(tx, v) {
						list.AddTx(tx, v)
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			inList = !inList
		}
	}()

	for i := 0; i < 400; i++ {
		err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
			inL := list.ContainsTx(tx, v)
			inS := set.ContainsTx(tx, v)
			if inL == inS {
				t.Errorf("observer %d saw list=%v set=%v", i, inL, inS)
			}
			return nil
		})
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCrossStructureSnapshotTotal takes one snapshot across a list, a
// queue and a tree, checking a conserved total across all three — the
// snapshot semantics composes across structures of the same TM.
func TestCrossStructureSnapshotTotal(t *testing.T) {
	tm := core.New()
	list := NewList(tm, ListConfig{})
	q := NewQueueOf[any](tm, 0)
	m := NewTreeMapOf[any](tm, 0)

	// total tokens = 30: 10 in each structure (values are token counts
	// for the tree; presence for list/queue).
	for i := 0; i < 10; i++ {
		if _, err := list.Add(i); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue(i); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Put(i, 1); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mover: shifts one token between structures atomically
		defer wg.Done()
		turn := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				switch turn % 3 {
				case 0: // list -> queue
					for i := 0; i < 40; i++ {
						if list.RemoveTx(tx, i) {
							q.EnqueueTx(tx, i+100)
							return nil
						}
					}
				case 1: // queue -> tree
					if v, ok := q.DequeueTx(tx); ok {
						_ = v
						m.PutTx(tx, 1000+turn, 1)
						return nil
					}
				default: // tree -> list
					found := -1
					m.AscendTx(tx, func(k int, _ any) bool {
						found = k
						return false
					})
					if found >= 0 && m.DeleteTx(tx, found) {
						list.AddTx(tx, 2000+turn)
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			turn++
		}
	}()

	for i := 0; i < 150; i++ {
		var total int
		err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
			total = list.SizeTx(tx) + q.LenTx(tx) + m.LenTx(tx)
			return nil
		})
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		if total != 30 {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d saw total %d, want 30", i, total)
		}
	}
	close(stop)
	wg.Wait()
}
