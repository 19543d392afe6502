package txstruct

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
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
		t.Fatalf("B+-tree invariants: %v", err)
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
	// Snapshots keep passing the shape invariants mid-flight.
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

// TestTreeMapUnlinkAndCollapse fills 0..4B so the root has several leaf
// children, deletes one whole leaf's keys and checks that the root dropped
// that leaf, then deletes every key and checks that the root is an empty
// leaf again.
func TestTreeMapUnlinkAndCollapse(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[any](tm, 0)
	const n = 4 * TreeFanout
	for k := 0; k < n; k++ {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	treeCheck(t, tm, m)
	// root reads the root block and, for an inner root, its children.
	root := func() (b *block[any], kids []*block[any]) {
		t.Helper()
		err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
			b, kids = m.root.Load(tx), kids[:0]
			for i := 0; !b.leaf && i < b.n; i++ {
				kids = append(kids, b.kids[i].Load(tx))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return b, kids
	}
	b, kids := root()
	if b.leaf || b.n < 3 || !kids[1].leaf {
		t.Fatalf("%d keys: root leaf=%v with %d children, want an inner root over >= 3 leaves", n, b.leaf, b.n)
	}
	victim := b.kids[1]
	doomed := kids[1].keys[:kids[1].n]
	for _, k := range doomed {
		if ok, err := m.Delete(k); err != nil || !ok {
			t.Fatalf("delete(%d) = %v, %v", k, ok, err)
		}
		treeCheck(t, tm, m)
	}
	after, _ := root()
	if after.n != b.n-1 {
		t.Fatalf("root has %d children after emptying one leaf, want %d", after.n, b.n-1)
	}
	for i := 0; i < after.n; i++ {
		if after.kids[i] == victim {
			t.Fatalf("root still links the emptied leaf at %d", i)
		}
	}
	for k := 0; k < n; k++ {
		if _, err := m.Delete(k); err != nil {
			t.Fatal(err)
		}
		treeCheck(t, tm, m)
	}
	if b, _ := root(); !b.leaf || b.n != 0 {
		t.Fatalf("emptied map: root leaf=%v with %d entries, want an empty leaf", b.leaf, b.n)
	}
	if n, err := m.Len(); err != nil || n != 0 {
		t.Fatalf("emptied map: Len = %d, %v", n, err)
	}
}

// readGate is a core.Recorder that parks one transaction at its first
// read of one cell until release is closed.
type readGate struct {
	tx, cell atomic.Uint64
	parked   chan struct{}
	release  chan struct{}
	once     sync.Once
}

func (g *readGate) Record(ev core.Event) {
	if ev.Kind == core.EventRead && ev.TxID == g.tx.Load() && ev.Cell == g.cell.Load() {
		g.once.Do(func() {
			close(g.parked)
			<-g.release
		})
	}
}

// TestTreeMapElasticWriterRacingStructuralChange parks an Elastic insert
// right after it read its leaf — its window then holds only the leaf and
// the leaf's parent — and commits a Classic transaction that changes the
// tree above them before letting it go on. The insert must abort and land
// in the tree as it is now, never in nodes the other transaction unlinked
// or copied.
//
// Both cases start from ReplaceAllTx's full nodes: the n even keys
// 0..2n-2 in 2B leaves of B under two inner nodes of B under the root.
func TestTreeMapElasticWriterRacingStructuralChange(t *testing.T) {
	const n = 2 * TreeFanout * TreeFanout
	for _, c := range []struct {
		name string
		// setup shapes the tree before the race; other is the
		// transaction that commits while the insert of key 1 is parked;
		// want lists the keys that must then be bound, and gone those
		// that must not.
		setup      func(m *TreeMapOf[int])
		other      func(tx *core.Tx, m *TreeMapOf[int])
		want, gone []int
	}{
		{
			// The parked insert's leaf holds key 0 alone and is the only
			// child of its parent. Deleting 0 unlinks both and collapses
			// the root, writing neither the leaf's parent's parent nor
			// anything else the insert's window holds — unless the
			// unlinked cells are scrubbed.
			name: "unlink",
			setup: func(m *TreeMapOf[int]) {
				for k := 2; k < n; k += 2 { // all of the first inner node but 0
					if _, err := m.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
			},
			other: func(tx *core.Tx, m *TreeMapOf[int]) { m.DeleteTx(tx, 0) },
			want:  []int{1, n, 2*n - 2},
			gone:  []int{0, 2},
		},
		{
			// The parked insert splits its full leaf and the full parent,
			// so it copies the root, which it read before its window.
			// The other transaction splits the other inner node first
			// and stores a root with three children.
			name:  "split",
			setup: func(*TreeMapOf[int]) {},
			other: func(tx *core.Tx, m *TreeMapOf[int]) { m.PutTx(tx, 2*n+1, 0) },
			want:  []int{1, 2*n + 1, n, 2*n - 2},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := &readGate{parked: make(chan struct{}), release: make(chan struct{})}
			g.tx.Store(math.MaxUint64)
			tm := core.New(core.WithRecorder(g))
			m := NewTreeMapOf[int](tm, core.Snapshot)
			keys := make([]int, n)
			for i := range keys {
				keys[i] = 2 * i
			}
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				m.ReplaceAllTx(tx, keys, keys)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			c.setup(m)
			// Park the insert of key 1 at its read of the first leaf.
			if err := tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
				b := m.root.Load(tx)
				for !b.leaf {
					l := b.kids[0]
					if b = l.Load(tx); b.leaf {
						g.cell.Store(l.ID())
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			done := make(chan error)
			go func() {
				done <- tm.Atomically(core.Elastic, func(tx *core.Tx) error {
					g.tx.Store(tx.ID())
					m.PutTx(tx, 1, 1)
					return nil
				})
			}()
			<-g.parked
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				c.other(tx, m)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			close(g.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				if _, err := m.checkInvariants(tx); err != nil {
					return err
				}
				for _, k := range c.want {
					if _, ok := m.GetTx(tx, k); !ok {
						t.Errorf("key %d is not bound", k)
					}
				}
				for _, k := range c.gone {
					if _, ok := m.GetTx(tx, k); ok {
						t.Errorf("key %d is still bound", k)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
