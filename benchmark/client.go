package main

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/shard"
)

type opClass uint8

const (
	classGet opClass = iota
	classPut
	classScan
	classTxn
	numClasses
)

var classNames = [numClasses]string{"get", "put", "scan", "txn"}

const (
	zipfS = 1.1
	// keyPerm is a fixed odd multiplier: rank -> rank*keyPerm mod numKeys
	// is a bijection that spreads the hot ranks over shards and stripes.
	keyPerm = 0x9E37
)

// opGen is one client's input stream: an op class drawn from the
// workload's mix and Zipf-ranked keys, all from one seeded source.
type opGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	mix  [numClasses]int // cumulative percent
}

func newOpGen(seed int64, client int, mix [numClasses]int) *opGen {
	rng := rand.New(rand.NewSource(seed*8191 + int64(client)))
	g := &opGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, numKeys-1)}
	sum := 0
	for c, pct := range mix {
		sum += pct
		g.mix[c] = sum
	}
	return g
}

func permute(rank uint64) int { return int(rank * keyPerm % numKeys) }

// next draws one op. k2 is the transfer's destination, distinct from k,
// and is drawn only for a txn.
func (g *opGen) next() (class opClass, k, k2 int) {
	r := g.rng.Intn(100)
	for class = classGet; class < classTxn && r >= g.mix[class]; class++ {
	}
	rank := g.zipf.Uint64()
	k = permute(rank)
	if class == classTxn {
		r2 := g.zipf.Uint64()
		if r2 == rank {
			r2 = (rank + 1) % numKeys
		}
		k2 = permute(r2)
	}
	return class, k, k2
}

// Phase kinds. The coordinator publishes a *phase; each client reads it
// once per op.
const (
	phaseWarm = iota
	phaseMeasure
	phaseTraced
	phaseStop
)

type phase struct {
	kind    int
	start   int64 // now() at the phase's start
	sliceNs int64
	slices  int
}

// window is what one client records during one measured phase. The phase
// is cut into equal slices so that each metric can be reported as the
// median of its per-slice values.
type window struct {
	lat    [][numClasses]hist // [slice][class]
	failed uint64

	// Counted by the benchmark itself because no layer exposes them.
	txns, crossTxns, closureRuns uint64
	scans, scanKeys              uint64
}

// client is one closed-loop caller: it issues its next op only after the
// previous one returned.
type client struct {
	id  int
	s   *store
	gen *opGen
	tr  *tracer // never switched on when the run has no traced phase
	ph  *atomic.Pointer[phase]
	wl  *workload

	win [2]*window // [0] measured, [1] traced
	cur *window    // window of the op in flight, nil while warming up

	// ackKey names the put in flight to the traced durable-ack barrier.
	ackKey atomic.Uint64

	// Lifetime tallies for the end-of-run audits.
	gets, deposits uint64
	putSeq         int

	// Arguments and results of the op in flight. The closures below read
	// and write these instead of capturing per-op variables, so issuing an
	// op allocates nothing in the benchmark.
	k, k2, sh, sh2 int
	v              int
	found, bad     bool
	n, prev        int

	getFn, putFn, depositFn, scanFn func(*core.Tx) error
	txnFn                           func(*shard.MultiTx) error
	visitFn                         func(key, val int) bool
}

func newClient(id int, s *store, wl *workload, seed int64, ph *atomic.Pointer[phase]) *client {
	c := &client{id: id, s: s, wl: wl, gen: newOpGen(seed, id, wl.mix), ph: ph, tr: &tracer{}}
	c.getFn = func(tx *core.Tx) error {
		c.v, c.found = c.cacheGet(tx, c.sh, c.k)
		if !c.found {
			if c.v, c.found = c.mapGet(tx, c.sh, c.k); c.found {
				c.cachePut(tx, c.sh, c.k, c.v)
			}
		}
		return nil
	}
	c.putFn = func(tx *core.Tx) error {
		if c.tr.on {
			c.ackKey.Store(ackKey(c.sh, tx))
		}
		c.mapPut(tx, c.sh, c.k, c.v)
		c.cachePut(tx, c.sh, c.k, c.v)
		return nil
	}
	c.depositFn = func(tx *core.Tx) error {
		v, _ := c.mapGet(tx, c.sh, c.k)
		c.mapPut(tx, c.sh, c.k, v+1)
		c.cachePut(tx, c.sh, c.k, v+1)
		return nil
	}
	c.visitFn = func(key, val int) bool {
		if key <= c.prev || (!c.s.balances && val%numKeys != key) {
			c.bad = true
		}
		c.prev = key
		c.n++
		return true
	}
	c.scanFn = func(tx *core.Tx) error {
		c.n, c.prev, c.bad = 0, -1, false
		sp := c.tr.begin(lRange)
		defer c.tr.end(sp)
		c.s.maps[c.sh].Tree().RangeTx(tx, c.k, c.k+scanSpan, c.visitFn)
		return nil
	}
	c.txnFn = func(m *shard.MultiTx) error {
		if c.cur != nil {
			c.cur.closureRuns++
		}
		ta, tb := m.Shard(c.sh), m.Shard(c.sh2)
		va, _ := c.mapGet(ta, c.sh, c.k)
		vb, _ := c.mapGet(tb, c.sh2, c.k2)
		c.mapPut(ta, c.sh, c.k, va-1)
		c.cachePut(ta, c.sh, c.k, va-1)
		c.mapPut(tb, c.sh2, c.k2, vb+1)
		c.cachePut(tb, c.sh2, c.k2, vb+1)
		return nil
	}
	return c
}

// The helpers below are the span sites: one per public function of a
// layer that an op calls. The deferred end also closes the span when a
// conflict unwinds the attempt through it.

func (c *client) route(k int) int {
	sp := c.tr.begin(lRoute)
	sh := c.s.p.ShardForKey(k)
	c.tr.end(sp)
	return sh
}

func (c *client) cacheGet(tx *core.Tx, sh, k int) (int, bool) {
	sp := c.tr.begin(lCacheGet)
	defer c.tr.end(sp)
	return c.s.caches[sh].GetTx(tx, k)
}

func (c *client) cachePut(tx *core.Tx, sh, k, v int) {
	sp := c.tr.begin(lCachePut)
	defer c.tr.end(sp)
	c.s.caches[sh].PutTx(tx, k, v)
}

func (c *client) mapGet(tx *core.Tx, sh, k int) (int, bool) {
	sp := c.tr.begin(lMapGet)
	defer c.tr.end(sp)
	return c.s.maps[sh].GetTx(tx, k)
}

func (c *client) mapPut(tx *core.Tx, sh, k, v int) {
	sp := c.tr.begin(lMapPut)
	defer c.tr.end(sp)
	c.s.maps[sh].PutTx(tx, k, v)
}

func (c *client) atomically(sh int, sem core.Semantics, fn func(*core.Tx) error) error {
	sp := c.tr.begin(lAtomically)
	err := c.s.p.Atomically(sh, sem, fn)
	c.tr.end(sp)
	return err
}

// do runs one op and reports whether it succeeded with a correct result.
func (c *client) do(class opClass, k, k2 int) bool {
	c.k, c.k2 = k, k2
	c.sh = c.route(k)
	switch class {
	case classGet:
		err := c.atomically(c.sh, core.Classic, c.getFn)
		c.gets++
		return err == nil && c.found && (c.s.balances || c.v%numKeys == k)
	case classPut:
		if c.wl.deposit {
			err := c.atomically(c.sh, core.Classic, c.depositFn)
			if err == nil {
				c.deposits++
			}
			return err == nil
		}
		c.putSeq++
		c.v = k + numKeys*c.putSeq
		return c.atomically(c.sh, core.Classic, c.putFn) == nil
	case classScan:
		err := c.atomically(c.sh, core.Snapshot, c.scanFn)
		if c.cur != nil {
			c.cur.scans++
			c.cur.scanKeys += uint64(c.n)
		}
		return err == nil && !c.bad && c.n == c.s.keysInScan(k)
	default:
		c.sh2 = c.route(k2)
		sp := c.tr.begin(lAtomicallyAll)
		err := c.s.p.AtomicallyAll(c.txnFn)
		c.tr.end(sp)
		if c.cur != nil {
			c.cur.txns++
			if c.sh != c.sh2 {
				c.cur.crossTxns++
			}
		}
		return err == nil
	}
}

// run is the client loop. It returns when the coordinator publishes
// phaseStop.
func (c *client) run() {
	var ph *phase
	for {
		if p := c.ph.Load(); p != ph {
			ph = p
			c.tr.on = ph.kind == phaseTraced
			switch ph.kind {
			case phaseStop:
				return
			case phaseMeasure:
				c.cur = c.win[0]
			case phaseTraced:
				c.cur = c.win[1]
			default:
				c.cur = nil
			}
		}
		class, k, k2 := c.gen.next()
		pinned := c.s.pinHeld[c.s.home[k]].Load()
		t0 := now()
		root := c.tr.beginAt(lOp, t0)
		ok := c.do(class, k, k2)
		t1 := now()
		c.tr.endAt(root, t1)
		if c.cur == nil {
			continue
		}
		if c.tr.on {
			c.tr.fold(class, pinned)
		}
		slice := int((t1 - ph.start) / ph.sliceNs)
		if slice >= ph.slices {
			continue // past the window; the coordinator is about to move on
		}
		c.cur.lat[slice][class].record(t1 - t0)
		if !ok {
			c.cur.failed++
		}
	}
}
