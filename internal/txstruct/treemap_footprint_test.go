package txstruct

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// These tests fence the write footprint of TreeMapOf: a put or delete
// stores to a cell only when it changes it, so its cost and its conflicts
// follow what it changes, not the depth of the tree.

// readVersions is a core.Recorder that, while armed, keeps the version
// every read of the current attempt observed, in read order.
type readVersions struct {
	mu    sync.Mutex
	armed bool
	vers  []uint64
}

func (r *readVersions) Record(ev core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.armed {
		return
	}
	switch ev.Kind {
	case core.EventBegin:
		r.vers = r.vers[:0]
	case core.EventRead:
		r.vers = append(r.vers, ev.Version)
	}
}

// pathVersions reports the commit version of every node cell a search for
// key passes — the root cell, then one per level down to the leaf — and,
// separately, of key's value cell, as the reads of one Classic
// transaction observed them through rec, the recorder of m's TM.
func pathVersions(t *testing.T, tm *core.TM, rec *readVersions, m *TreeMapOf[int], key int) (path []uint64, val uint64) {
	t.Helper()
	rec.mu.Lock()
	rec.armed = true
	rec.mu.Unlock()
	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		b := m.root.Load(tx)
		for !b.leaf {
			b = b.kids[b.childFor(key)].Load(tx)
		}
		i := b.lowerBound(key)
		if i == b.n || b.keys[i] != key {
			t.Errorf("key %d is not bound", key)
			return nil
		}
		b.vals[i].Load(tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.armed = false
	n := len(rec.vers)
	return append([]uint64(nil), rec.vers[:n-1]...), rec.vers[n-1]
}

func TestTreeMapOverwriteWritesOnlyTheValue(t *testing.T) {
	rec := &readVersions{}
	tm := core.New(core.WithRecorder(rec))
	m := NewTreeMapOf[int](tm, 0)
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(2048)
	for _, k := range keys {
		if _, err := m.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:256] {
		before, valBefore := pathVersions(t, tm, rec, m, k)
		if inserted, err := m.Put(k, -k); err != nil || inserted {
			t.Fatalf("overwrite of %d: inserted=%v err=%v", k, inserted, err)
		}
		after, valAfter := pathVersions(t, tm, rec, m, k)
		if len(before) != len(after) {
			t.Fatalf("key %d: the search path changed length, %d to %d cells", k, len(before), len(after))
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("key %d: overwrite installed path cell %d (version %d to %d)", k, i, before[i], after[i])
			}
		}
		if valAfter <= valBefore {
			t.Fatalf("key %d: value cell version %d to %d, want it to move", k, valBefore, valAfter)
		}
	}
}

// installCounter is a core.Recorder counting, over committed update
// transactions, the distinct cells each one wrote — the cells its commit
// locked, versioned and installed.
type installCounter struct {
	mu        sync.Mutex
	pending   map[uint64]struct{}
	installed int
}

func (c *installCounter) Record(ev core.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case core.EventBegin:
		clear(c.pending)
	case core.EventWrite:
		c.pending[ev.Cell] = struct{}{}
	case core.EventCommit:
		c.installed += len(c.pending)
	}
}

// TestTreeMapInsertInstallsAConstantNumberOfCells: an insert installs
// the leaf's cell and, per split, the parent's — at most height + 2
// cells, whatever the map's size — and an overwrite exactly one.
func TestTreeMapInsertInstallsAConstantNumberOfCells(t *testing.T) {
	counter := &installCounter{pending: make(map[uint64]struct{})}
	tm := core.New(core.WithRecorder(counter))
	m := NewTreeMapOf[int](tm, 0)
	const n = 64 << 10
	most := 0
	for _, k := range rand.New(rand.NewSource(2)).Perm(n) {
		before := counter.installed
		if inserted, err := m.Put(k, k); err != nil || !inserted {
			t.Fatalf("insert of %d: inserted=%v err=%v", k, inserted, err)
		}
		most = max(most, counter.installed-before)
	}
	h, err := m.Height()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f cells installed per insert, at most %d, height %d, %d splits",
		float64(counter.installed)/n, most, h, m.Splits())
	if most > h+2 {
		t.Fatalf("an insert installed %d cells, want at most height %d + 2", most, h)
	}

	// An overwrite installs exactly one.
	counter.installed = 0
	for k := 0; k < 1000; k++ {
		if _, err := m.Put(k, -k); err != nil {
			t.Fatal(err)
		}
	}
	if counter.installed != 1000 {
		t.Fatalf("1000 overwrites installed %d cells, want 1000", counter.installed)
	}
}

// TestTreeMapRandomOpsKeepInvariants drives a random put / overwrite /
// delete sequence against a map model, checking the B+-tree invariants
// and the full contents after every operation — once with each operation
// its own Classic transaction, once with each inside a caller's Elastic
// transaction.
func TestTreeMapRandomOpsKeepInvariants(t *testing.T) {
	for _, sem := range []core.Semantics{core.Classic, core.Elastic} {
		t.Run(sem.String(), func(t *testing.T) {
			tm := core.New()
			m := NewTreeMapOf[int](tm, 0)
			model := make(map[int]int)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 6000; i++ {
				k := rng.Intn(192)
				_, bound := model[k]
				del := rng.Intn(3) == 0
				var got bool
				err := tm.Atomically(sem, func(tx *core.Tx) error {
					if del {
						got = m.DeleteTx(tx, k)
					} else {
						got = m.PutTx(tx, k, i)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if del {
					if got != bound {
						t.Fatalf("op %d: delete(%d) = %v, want %v", i, k, got, bound)
					}
					delete(model, k)
				} else {
					if got == bound {
						t.Fatalf("op %d: put(%d) inserted=%v, want %v", i, k, got, !bound)
					}
					model[k] = i
				}
				err = tm.Atomically(core.Classic, func(tx *core.Tx) error {
					if _, err := m.checkInvariants(tx); err != nil {
						return err
					}
					n := 0
					m.AscendTx(tx, func(k, v int) bool {
						if want, ok := model[k]; !ok || want != v {
							t.Errorf("op %d: tree binds %d to %d, model %d (bound %v)", i, k, v, want, ok)
						}
						n++
						return true
					})
					if n != len(model) {
						t.Errorf("op %d: tree holds %d keys, model %d", i, n, len(model))
					}
					return nil
				})
				if err != nil || t.Failed() {
					t.Fatalf("op %d (delete=%v key=%d): %v", i, del, k, err)
				}
			}
		})
	}
}

// TestTreeMapDisjointOverwritesDoNotConflict: two writers overwriting
// different bound keys of one tree share only cells neither changes, so
// not one attempt aborts. (When every put re-stored the root cell, each
// pair of overlapping puts conflicted there.)
func TestTreeMapDisjointOverwritesDoNotConflict(t *testing.T) {
	tm := core.New()
	m := NewTreeMapOf[int](tm, 0)
	for _, k := range rand.New(rand.NewSource(4)).Perm(1024) {
		if _, err := m.Put(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := tm.Stats()
	const ops = 50_000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(5 + w)))
			for i := 0; i < ops; i++ {
				k := rng.Intn(512)*2 + w // writer 0: even keys, writer 1: odd
				if inserted, err := m.Put(k, i); err != nil || inserted {
					t.Errorf("writer %d: put(%d) inserted=%v err=%v", w, k, inserted, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	after := tm.Stats()
	if got := after.Commits - before.Commits; got != 2*ops {
		t.Fatalf("%d commits, want %d", got, 2*ops)
	}
	if aborts := after.TotalAborts() - before.TotalAborts(); aborts != 0 {
		t.Fatalf("%d aborts between writers of different keys (%v), want 0", aborts, after.Aborts)
	}
}
