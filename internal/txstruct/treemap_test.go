package txstruct

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func treeCheck(t *testing.T, tm *core.TM, m *TreeMapOf[any]) {
	t.Helper()
	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		_, err := m.checkInvariants(tx)
		return err
	})
	if err != nil {
		t.Fatalf("red-black invariants: %v", err)
	}
}

func TestTreeMapModel(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[any](tm, 0)
	model := make(map[int]string)
	puts := []struct {
		k int
		v string
	}{
		{5, "a"}, {3, "b"}, {8, "c"}, {5, "a2"}, {1, "d"}, {9, "e"},
		{2, "f"}, {7, "g"}, {0, "h"}, {6, "i"}, {4, "j"},
	}
	for _, p := range puts {
		_, wasThere := model[p.k]
		ins, err := m.Put(p.k, p.v)
		if err != nil {
			t.Fatal(err)
		}
		if ins != !wasThere {
			t.Fatalf("put(%d) inserted=%v, want %v", p.k, ins, !wasThere)
		}
		model[p.k] = p.v
		treeCheck(t, tm, m)
	}
	for k, want := range model {
		v, ok, err := m.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != want {
			t.Fatalf("get(%d) = (%v,%v), want %q", k, v, ok, want)
		}
	}
	if _, ok, _ := m.Get(12345); ok {
		t.Fatal("phantom key")
	}
	for _, k := range []int{5, 1, 9, 0, 5} {
		_, wasThere := model[k]
		rm, err := m.Delete(k)
		if err != nil {
			t.Fatal(err)
		}
		if rm != wasThere {
			t.Fatalf("delete(%d) = %v, want %v", k, rm, wasThere)
		}
		delete(model, k)
		treeCheck(t, tm, m)
	}
	n, err := m.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(model) {
		t.Fatalf("len = %d, want %d", n, len(model))
	}
	keys, err := m.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(keys) || len(keys) != len(model) {
		t.Fatalf("keys %v vs model size %d", keys, len(model))
	}
}

func TestTreeMapQuickModel(t *testing.T) {
	prop := func(ops []uint16) bool {
		tm := core.New()
		m := NewTreeMapOf[any](tm, core.Snapshot)
		model := make(map[int]int)
		for i, raw := range ops {
			k := int(raw % 128)
			switch (raw / 128) % 3 {
			case 0:
				_, wasThere := model[k]
				ins, err := m.Put(k, i)
				if err != nil || ins == wasThere {
					return false
				}
				model[k] = i
			case 1:
				_, wasThere := model[k]
				rm, err := m.Delete(k)
				if err != nil || rm != wasThere {
					return false
				}
				delete(model, k)
			default:
				v, ok, err := m.Get(k)
				if err != nil {
					return false
				}
				want, wasThere := model[k]
				if ok != wasThere || (ok && v != want) {
					return false
				}
			}
		}
		// Invariants + full-content equality at the end.
		bad := false
		_ = tm.Atomically(core.Classic, func(tx *core.Tx) error {
			if _, err := m.checkInvariants(tx); err != nil {
				bad = true
			}
			return nil
		})
		if bad {
			return false
		}
		keys, err := m.Keys()
		if err != nil || len(keys) != len(model) {
			return false
		}
		for _, k := range keys {
			if _, ok := model[k]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeMapConcurrent(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[any](tm, 0)
	const keyRange = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*0x9e3779b97f4a7c15 + 29
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < 200; i++ {
				k := next(keyRange)
				switch next(3) {
				case 0:
					if _, err := m.Put(k, i); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := m.Delete(k); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, _, err := m.Get(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	// Snapshots keep passing the balance invariants mid-flight.
	stop := make(chan struct{})
	var snapWg sync.WaitGroup
	snapWg.Add(1)
	go func() {
		defer snapWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
				_, err := m.checkInvariants(tx)
				return err
			})
			if err != nil {
				t.Errorf("mid-flight invariants: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWg.Wait()
	treeCheck(t, tm, m)
}

func TestTreeMapRange(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[any](tm, 0)
	for k := 0; k < 50; k += 2 { // evens 0..48
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.Range(9, 21)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("Range(9,21) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range(9,21) = %v, want %v", got, want)
		}
	}
	if got, err := m.Range(100, 200); err != nil || len(got) != 0 {
		t.Fatalf("empty range: %v, %v", got, err)
	}
	if got, err := m.Range(21, 9); err != nil || len(got) != 0 {
		t.Fatalf("inverted range: %v, %v", got, err)
	}
	// Early stop inside a transaction.
	var first []int
	err = tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		first = first[:0]
		m.RangeTx(tx, 0, 100, func(k int, _ any) bool {
			first = append(first, k)
			return len(first) < 3
		})
		return nil
	})
	if err != nil || len(first) != 3 || first[2] != 4 {
		t.Fatalf("early-stop range = %v (%v)", first, err)
	}
}

func TestTreeMapAscendStopsEarly(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[any](tm, 0)
	for k := 0; k < 10; k++ {
		if _, err := m.Put(k, k*k); err != nil {
			t.Fatal(err)
		}
	}
	var visited []int
	err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		visited = visited[:0]
		m.AscendTx(tx, func(k int, _ any) bool {
			visited = append(visited, k)
			return k < 4
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}
