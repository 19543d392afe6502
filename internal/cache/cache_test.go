package cache

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

// refClock is the plain sequential reference model of ONE stripe: a
// CLOCK / second-chance list mirroring the transactional implementation
// step for step — hits set a reference bit (no relink), puts to new keys
// insert at the MRU end with the bit clear, and eviction sweeps from the
// LRU end demoting touched entries before victimizing the first
// untouched one.
type refClock struct {
	cap     int
	order   []int // MRU first
	touched map[int]bool
	vals    map[int]int
}

func newRefClock(cap int) *refClock {
	return &refClock{cap: cap, touched: map[int]bool{}, vals: map[int]int{}}
}

func (r *refClock) rotateToFront(i int) {
	k := r.order[i]
	r.order = append(r.order[:i], r.order[i+1:]...)
	r.order = append([]int{k}, r.order...)
}

func (r *refClock) get(key int) (int, bool) {
	v, ok := r.vals[key]
	if ok {
		r.touched[key] = true
	}
	return v, ok
}

func (r *refClock) put(key, val int) bool {
	if _, ok := r.vals[key]; ok {
		r.vals[key] = val
		r.touched[key] = true
		return false
	}
	if len(r.order) >= r.cap {
		r.evict()
	}
	r.vals[key] = val
	r.touched[key] = false
	r.order = append([]int{key}, r.order...)
	return true
}

// evict mirrors stripe.evictTx exactly, including the i<n sweep bound.
func (r *refClock) evict() {
	n := len(r.order)
	for i := 0; ; i++ {
		if len(r.order) == 0 {
			return
		}
		victim := r.order[len(r.order)-1]
		if i < n && r.touched[victim] {
			r.touched[victim] = false
			r.rotateToFront(len(r.order) - 1)
			continue
		}
		r.order = r.order[:len(r.order)-1]
		delete(r.vals, victim)
		delete(r.touched, victim)
		return
	}
}

// refStriped routes keys across per-stripe refClock models with the
// same capacity split the implementation uses.
type refStriped struct {
	c       *Cache[int] // routing oracle (stripeIndex)
	stripes []*refClock
}

func newRefStriped(c *Cache[int]) *refStriped {
	r := &refStriped{c: c}
	for i := 0; i < c.Stripes(); i++ {
		r.stripes = append(r.stripes, newRefClock(c.StripeStats(i).Capacity))
	}
	return r
}

func (r *refStriped) get(key int) (int, bool) { return r.stripes[r.c.stripeIndex(key)].get(key) }
func (r *refStriped) put(key, val int) bool   { return r.stripes[r.c.stripeIndex(key)].put(key, val) }
func (r *refStriped) peek(key int) (int, bool) {
	v, ok := r.stripes[r.c.stripeIndex(key)].vals[key]
	return v, ok
}
func (r *refStriped) len() int {
	n := 0
	for _, s := range r.stripes {
		n += len(s.order)
	}
	return n
}

// driveAgainstReference runs a seeded single-threaded op stream through
// the transactional cache and the reference model in lockstep: results,
// membership, eviction choice and per-stripe recency order must agree
// exactly.
func driveAgainstReference(t *testing.T, c *Cache[int], ops int, seed int64) {
	t.Helper()
	tm := c.tm
	ref := newRefStriped(c)
	keys := 3 * c.Capacity()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		key := rng.Intn(keys)
		switch rng.Intn(3) {
		case 0:
			v, ok, err := c.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			rv, rok := ref.get(key)
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), reference (%d,%v)", i, key, v, ok, rv, rok)
			}
		case 1:
			v, ok, err := c.Peek(key)
			if err != nil {
				t.Fatal(err)
			}
			rv, rok := ref.peek(key)
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Peek(%d) = (%d,%v), reference (%d,%v)", i, key, v, ok, rv, rok)
			}
		default:
			isNew, err := c.Put(key, i)
			if err != nil {
				t.Fatal(err)
			}
			_, had := ref.peek(key)
			if isNew == had {
				t.Fatalf("op %d: Put(%d) isNew=%v, reference had=%v", i, key, isNew, had)
			}
			ref.put(key, i)
		}
	}
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		if err := c.CheckTx(tx); err != nil {
			return err
		}
		if n := c.LenTx(tx); n != ref.len() {
			t.Errorf("final len %d, reference %d", n, ref.len())
		}
		// Per-stripe: bindings, recency order AND reference bits must
		// match the model exactly.
		for si, s := range c.stripes {
			rs := ref.stripes[si]
			i := 0
			for e := s.head.Load(tx); e != nil; e = e.next.Load(tx) {
				if i >= len(rs.order) || e.key != rs.order[i] {
					t.Errorf("stripe %d recency position %d holds key %d, reference %v", si, i, e.key, rs.order)
					break
				}
				if got := e.touched.Load(tx); got != rs.touched[e.key] {
					t.Errorf("stripe %d key %d touched=%v, reference %v", si, e.key, got, rs.touched[e.key])
				}
				if v := e.val.Load(tx); v != rs.vals[e.key] {
					t.Errorf("stripe %d key %d value %d, reference %d", si, e.key, v, rs.vals[e.key])
				}
				i++
			}
			if i != len(rs.order) {
				t.Errorf("stripe %d lists %d entries, reference %d", si, i, len(rs.order))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheMatchesReferenceModel: one stripe, so the whole cache is a
// single second-chance list — the base case of the CLOCK semantics.
func TestCacheMatchesReferenceModel(t *testing.T) {
	tm := core.New()
	c := NewWith[int](tm, 8, Options{Stripes: 1})
	driveAgainstReference(t, c, 4000, 42)
}

// TestStripedCacheMatchesReferenceModel: four stripes over an uneven
// capacity, so shares differ (4/3/3/3) and every key's fate is decided
// entirely within its routed stripe.
func TestStripedCacheMatchesReferenceModel(t *testing.T) {
	tm := core.New()
	c := NewWith[int](tm, 13, Options{Stripes: 4})
	if c.Stripes() != 4 {
		t.Fatalf("Stripes() = %d, want 4", c.Stripes())
	}
	shares := 0
	for i := 0; i < 4; i++ {
		shares += c.StripeStats(i).Capacity
	}
	if shares != 13 {
		t.Fatalf("stripe capacity shares sum to %d, want 13", shares)
	}
	driveAgainstReference(t, c, 6000, 7)
}

// TestCacheSecondChanceEvictsUntouched pins the sweep order on a
// deterministic scenario: a touched tail entry is demoted (spared,
// rotated to MRU) and the first untouched entry behind it is the victim.
func TestCacheSecondChanceEvictsUntouched(t *testing.T) {
	tm := core.New()
	c := NewWith[int](tm, 3, Options{Stripes: 1})
	for _, k := range []int{1, 2, 3} { // recency now 3,2,1 (MRU first)
		if _, err := c.Put(k, 10*k); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get(1); err != nil { // touch the tail entry
		t.Fatal(err)
	}
	if _, err := c.Put(4, 40); err != nil { // sweep: demote 1, evict 2
		t.Fatal(err)
	}
	for k, want := range map[int]bool{1: true, 2: false, 3: true, 4: true} {
		if _, ok, err := c.Peek(k); err != nil || ok != want {
			t.Fatalf("after second-chance eviction Peek(%d) present=%v (err %v), want %v", k, ok, err, want)
		}
	}
	_, _, evics := c.Stats()
	if evics != 1 || c.Demotions() != 1 {
		t.Fatalf("evictions=%d demotions=%d, want 1 and 1", evics, c.Demotions())
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheHotHitIsReadOnly pins the tentpole's hit-path contract: once
// an entry's reference bit is set, further Gets of it write nothing (a
// read-only transaction), so steady-state hot hits cannot conflict with
// each other.
func TestCacheHotHitIsReadOnly(t *testing.T) {
	tm := core.New()
	c := NewWith[int](tm, 4, Options{Stripes: 1})
	if _, err := c.Put(1, 11); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(1); err != nil { // first hit sets the bit
		t.Fatal(err)
	}
	before := tm.Stats()
	for i := 0; i < 10; i++ {
		if v, ok, err := c.Get(1); err != nil || !ok || v != 11 {
			t.Fatalf("hot Get = (%d,%v,%v)", v, ok, err)
		}
	}
	after := tm.Stats()
	if got := after.ReadOnlyCommits - before.ReadOnlyCommits; got != 10 {
		t.Fatalf("10 hot hits produced %d read-only commits, want 10 (hit path still writes)", got)
	}
}

// TestCacheHotHitAllocatesNothing fences the cost of counting: a warm hit
// inside Atomically — lookup, reference bit already set, escrow'd hit
// stat — touches the heap not at all.
func TestCacheHotHitAllocatesNothing(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := core.New()
	c := New[int](tm, 64)
	if _, err := c.Put(1, 11); err != nil {
		t.Fatal(err)
	}
	var v int
	var ok bool
	hit := func(tx *core.Tx) error {
		v, ok = c.GetTx(tx, 1)
		return nil
	}
	get := func() {
		if err := tm.Atomically(core.Classic, hit); err != nil || !ok || v != 11 {
			t.Errorf("hot GetTx = (%d,%v,%v)", v, ok, err)
		}
	}
	for i := 0; i < 3; i++ { // set the bit, warm the pooled handle
		get()
	}
	// Twice, keeping the smaller: a GC between runs may empty the handle
	// pool and charge the refill to one iteration.
	if a := testing.AllocsPerRun(200, get); a != 0 {
		if a = testing.AllocsPerRun(200, get); a != 0 {
			t.Errorf("warm cache hit allocates %.2f objects/op, want 0", a)
		}
	}
	if hits, _, _ := c.Stats(); hits < 200 {
		t.Errorf("hits = %d: the fenced path did not count", hits)
	}
}

// TestCacheMissFillAllocatesOneEntry fences the entry layout: a steady
// insert-and-evict cycle through a full one-stripe cache allocates the new
// entry — its five cells and their first records included — plus a second
// record for each cell around it written for the first time, at most 4
// objects per miss-fill in all. The victim's scrub rewrites its records in
// place and allocates nothing.
func TestCacheMissFillAllocatesOneEntry(t *testing.T) {
	if core.PrivatizeGuardsEnabled {
		t.Skip("race-detector builds defeat sync.Pool reuse by design")
	}
	tm := core.New()
	c := New[int](tm, 64)
	if c.Stripes() != 1 {
		t.Fatalf("%d stripes, want 1", c.Stripes())
	}
	key := 0
	fill := func(tx *core.Tx) error {
		if !c.PutTx(tx, key, key) {
			t.Errorf("key %d was already cached", key)
		}
		return nil
	}
	put := func() {
		key++
		if err := tm.Atomically(core.Classic, fill); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 10*64; i++ { // fill, then cycle every slot through
		put()
	}
	_, _, before := c.Stats()
	a := testing.AllocsPerRun(200, put)
	t.Logf("%.0f objects per miss-fill", a)
	if a > 4 {
		t.Errorf("a miss-fill allocates %.0f objects, want at most 4", a)
	}
	if _, _, after := c.Stats(); after-before < 200 {
		t.Errorf("%d evictions during the fenced fills, want one per fill", after-before)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestNewWithNormalizesStripes: stripe counts round up to a power of two
// and are capped so every stripe owns at least one slot; the default is a
// function of the capacity alone — 16, halved while a stripe would own
// fewer than 64 slots.
func TestNewWithNormalizesStripes(t *testing.T) {
	tm := core.New()
	for _, tc := range []struct {
		capacity, stripes, want int
	}{
		{64, 1, 1},
		{64, 3, 4},
		{64, 16, 16},
		{4, 64, 4}, // capped: one slot per stripe minimum
		{1, 8, 1},  // degenerate single-slot cache
		{13, 4, 4}, // uneven shares
		{1, 0, 1},
		{64, 0, 1}, // one exact stripe
		{127, 0, 1},
		{128, 0, 2},
		{1023, 0, 8},
		{1024, 0, 16},
		{1 << 20, 0, 16},
	} {
		c := NewWith[int](tm, tc.capacity, Options{Stripes: tc.stripes})
		if c.Stripes() != tc.want {
			t.Errorf("NewWith(cap=%d, stripes=%d).Stripes() = %d, want %d",
				tc.capacity, tc.stripes, c.Stripes(), tc.want)
		}
		shares := 0
		for i := 0; i < c.Stripes(); i++ {
			sc := c.StripeStats(i).Capacity
			if sc < 1 {
				t.Errorf("cap=%d stripes=%d: stripe %d owns %d slots", tc.capacity, tc.stripes, i, sc)
			}
			shares += sc
		}
		if shares != tc.capacity {
			t.Errorf("cap=%d stripes=%d: shares sum to %d", tc.capacity, tc.stripes, shares)
		}
	}
}

// TestCacheConcurrentInvariants hammers the striped cache from 8
// goroutines and checks the structural invariants and the escrow
// accounting identities: inserts = len + evictions (folded over
// stripes), and hits+misses = completed probe count. Meaningful under
// -race: touches rewrite recycled version records while other
// transactions traverse.
func TestCacheConcurrentInvariants(t *testing.T) {
	const (
		capacity = 16
		keys     = 48
		workers  = 8
		perOps   = 400
	)
	tm := core.New()
	c := NewWith[int](tm, capacity, Options{Stripes: 4})
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		probes  int64
		inserts int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var myProbes, myInserts int64
			for i := 0; i < perOps; i++ {
				key := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					if _, _, err := c.Get(key); err != nil {
						t.Error(err)
						return
					}
					myProbes++
				} else {
					isNew, err := c.Put(key, i)
					if err != nil {
						t.Error(err)
						return
					}
					if isNew {
						myInserts++
					}
				}
			}
			mu.Lock()
			probes += myProbes
			inserts += myInserts
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var n int
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		n = c.LenTx(tx)
		return c.CheckTx(tx)
	}); err != nil {
		t.Fatal(err)
	}
	hits, misses, evictions := c.Stats()
	if hits+misses != probes {
		t.Errorf("hits+misses = %d, want %d probes", hits+misses, probes)
	}
	if inserts != int64(n)+evictions {
		t.Errorf("inserts = %d, want len %d + evictions %d", inserts, n, evictions)
	}
	if evictions == 0 || hits == 0 || misses == 0 || c.Demotions() == 0 {
		t.Errorf("vacuous run: hits=%d misses=%d evictions=%d demotions=%d, want all > 0",
			hits, misses, evictions, c.Demotions())
	}
	// Per-stripe legs must fold to the global counters.
	var sh, sm, se int64
	for i := 0; i < c.Stripes(); i++ {
		st := c.StripeStats(i)
		sh += st.Hits
		sm += st.Misses
		se += st.Evictions
	}
	if sh != hits || sm != misses || se != evictions {
		t.Errorf("stripe stats fold to (%d,%d,%d), global (%d,%d,%d)", sh, sm, se, hits, misses, evictions)
	}
}

// TestCacheComposesWithOtherState exercises the point of a TRANSACTIONAL
// cache: a cache update and an unrelated variable commit atomically, and
// an aborted attempt leaves neither (nor the escrow stats) behind.
func TestCacheComposesWithOtherState(t *testing.T) {
	tm := core.New()
	c := New[string](tm, 4)
	total := core.NewTypedCell(tm, 0)
	// Committed composition.
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		c.PutTx(tx, 1, "one")
		total.Store(tx, total.Load(tx)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Deliberate rollback: the Put and the counter bump both vanish.
	sentinel := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		c.PutTx(tx, 2, "two")
		total.Store(tx, total.Load(tx)+1)
		return errRollback
	})
	if sentinel != errRollback {
		t.Fatalf("rollback returned %v", sentinel)
	}
	if _, ok, _ := c.Peek(2); ok {
		t.Fatal("rolled-back Put is visible")
	}
	if v, ok, _ := c.Peek(1); !ok || v != "one" {
		t.Fatalf("committed Put lost: (%q,%v)", v, ok)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats after two peeks = (%d hits, %d misses), want (1,1) — aborted attempts must not count", hits, misses)
	}
}

var errRollback = errTest("rollback")

type errTest string

func (e errTest) Error() string { return string(e) }

// TestEvictionDoesNotLeak: memory is bounded by capacity, not by how many
// entries ever passed through. Before evicted entries were scrubbed, each
// one stayed reachable from the superseded record of a link cell that is
// never written again, and kept the victim before it alive the same way:
// one chain holding every victim ever. A race build runs a tenth of the
// inserts: the race runtime makes each one far slower, and a retained
// victim per eviction still grows the live heap past the bound at that
// size.
func TestEvictionDoesNotLeak(t *testing.T) {
	early, total := 20_000, 200_000
	if core.PrivatizeGuardsEnabled { // race builds
		early, total = 2_000, 20_000
	}
	tm := core.New()
	c := NewWith[int](tm, 256, Options{Stripes: 4})
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	fill := func(from, to int) {
		for k := from; k < to; k++ {
			if _, err := c.Put(k, k); err != nil {
				t.Fatal(err)
			}
			if k%64 == 0 { // some hits, so the sweep demotes as well as evicts
				if _, _, err := c.Get(k - 8); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fill(0, early)
	before := live()
	fill(early, total)
	late := live()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if _, _, evictions := c.Stats(); evictions != int64(total-256) {
		t.Fatalf("%d evictions, want %d", evictions, total-256)
	}
	t.Logf("live heap: %d KiB after %d inserts, %d KiB after %d", before>>10, early, late>>10, total)
	if late > before+before/2 {
		t.Fatalf("live heap grew from %d to %d bytes over %d evictions: evicted entries are retained", before, late, total-early)
	}
}
