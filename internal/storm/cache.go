package storm

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/history"
)

// cacheWorkload storms the STRIPED transactional LRU cache: gets (which
// set an entry's second-chance bit on first touch, and are read-only
// once it is set), read-only peeks under classic and snapshot semantics,
// puts (which insert and evict within the key's stripe), and length
// probes folding all stripes, over a key range twice the capacity so
// eviction runs continuously in every stripe.
//
// The workload pins the stripe count at 4 (the default would give these
// small capacities one stripe) so every storm exercises cross-stripe
// behaviour; a storm's shape — which keys share a stripe, where eviction
// pressure lands — is a pure function of the config, and the shrinker's
// replay rebuilds the identical cache.
//
// Checking is hit-rate + invariants, in three layers:
//
//  1. value linearizability of hits: eviction never changes a binding's
//     value — once evicted, a key misses until re-put, and a re-put
//     installs the then-latest value — so every HIT must return the value
//     of the latest committed put to its key at the transaction's
//     serialization instant, checkable from the put timeline alone
//     without modeling eviction order. (Misses are not value-checkable
//     this way: a miss may be an eviction, which the timeline does not
//     see. They are covered by the accounting identities instead.)
//  2. escrow accounting: the cache counts hits/misses/evictions through
//     per-stripe boost.EscrowCounter legs; folded over stripes, the
//     committed values must equal the counts derivable from the committed
//     op records — hits and misses exactly, evictions through the global
//     identity evictions = inserts − len (no stripe's size ever shrinks;
//     each only saturates at its share). Note min(inserts, capacity) is
//     NOT the final length under striping: a stripe can saturate while
//     another sits below its share, which is exactly the approximation
//     the striped design buys.
//  3. structural invariants: cache.Check() over the final state —
//     per-stripe list consistency both directions, directory agreement,
//     stripe routing and capacity shares, plus the global
//     directory↔lists identity — and a capacity bound on every observed
//     length.
//
// Global and per-stripe hit rates go to the storm report's notes, and the
// run fails as vacuous if the storm never hit, never missed, never
// evicted or never demoted (a demotion is a second-chance rotation; zero
// demotions would mean the CLOCK machinery went unexercised).
type cacheWorkload struct {
	tm    *core.TM
	c     *cache.Cache[int]
	keys  int
	lastN []string
}

func newCacheWorkload(tm *core.TM, keys int) *cacheWorkload {
	capacity := keys / 2
	if capacity < 2 {
		capacity = 2
	}
	c := cache.NewWith[int](tm, capacity, cache.Options{Stripes: 4})
	return &cacheWorkload{tm: tm, c: c, keys: keys}
}

func (w *cacheWorkload) name() string { return "lrucache" }

func (w *cacheWorkload) prepopulate(rng *rand.Rand) ([]OpRecord, error) {
	var recs []OpRecord
	for i := 0; i < w.c.Capacity()/2; i++ {
		rec, err := w.exec(core.Classic, Op{Kind: OpPut, Key: rng.Intn(w.keys), Val: rng.Intn(1 << 16)})
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (w *cacheWorkload) step(rng *rand.Rand, mix Mix) (OpRecord, error) {
	roll := rng.Intn(100)
	key := rng.Intn(w.keys)
	classicOnly := []core.Semantics{core.Classic}
	reads := []core.Semantics{core.Classic, core.Snapshot}
	switch {
	case roll < 40:
		// Touching get: writes the entry's second-chance bit on first
		// touch, so it must be an update-capable semantics. (Once the bit
		// is set, further hits are read-only — that is the tentpole's hot
		// path, and both cases must verify.)
		return w.exec(mix.pick(rng, classicOnly), Op{Kind: OpGet, Key: key})
	case roll < 55:
		// Read-only probe; under Snapshot it interferes with nothing.
		return w.exec(mix.pick(rng, reads), Op{Kind: OpPeek, Key: key})
	case roll < 90:
		return w.exec(mix.pick(rng, classicOnly), Op{Kind: OpPut, Key: key, Val: rng.Intn(1 << 16)})
	default:
		return w.exec(mix.pick(rng, reads), Op{Kind: OpLen})
	}
}

func (w *cacheWorkload) exec(sem core.Semantics, op Op) (OpRecord, error) {
	var txid uint64
	err := w.tm.Atomically(sem, func(tx *core.Tx) error {
		txid = tx.ID()
		switch op.Kind {
		case OpGet:
			v, ok := w.c.GetTx(tx, op.Key)
			op.Bool = ok
			if ok {
				op.Int = v
			}
		case OpPeek:
			v, ok := w.c.PeekTx(tx, op.Key)
			op.Bool = ok
			if ok {
				op.Int = v
			}
		case OpPut:
			op.Bool = w.c.PutTx(tx, op.Key, op.Val)
		case OpLen:
			op.Int = w.c.LenTx(tx)
		}
		return nil
	})
	return OpRecord{TxID: txid, Sem: sem, Ops: []Op{op}}, err
}

func (w *cacheWorkload) check(log *history.ExecLog, recs []OpRecord) error {
	ctx := newReplayCtx(log, recs)
	puts := newKeyTimeline(false, 0)
	latest := make(map[int]int) // key -> latest put value, in serialization order
	var hits, misses, inserts int64

	count := func(op Op) {
		switch op.Kind {
		case OpGet, OpPeek:
			if op.Bool {
				hits++
			} else {
				misses++
			}
		case OpPut:
			if op.Bool {
				inserts++
			}
		}
	}

	updaters, readOnly := ctx.partition()
	for _, u := range updaters {
		for _, op := range u.rec.Ops {
			count(op)
			switch op.Kind {
			case OpGet:
				// An updater get is a first-touch HIT (a miss writes
				// nothing, and an already-touched hit is read-only): its
				// validated read must equal the latest put just below its
				// commit instant.
				if !op.Bool {
					return opErr(u.ex, op, "missed yet wrote")
				}
				v, ok := latest[op.Key]
				if !ok || v != op.Int {
					return opErr(u.ex, op, "hit observed %d, latest put below instant %d is %v (present=%v)",
						op.Int, u.ex.CommitVer, v, ok)
				}
			case OpPut:
				latest[op.Key] = op.Val
				puts.apply(op.Key, u.ex.CommitVer, true, op.Val)
			default:
				return opErr(u.ex, op, "unexpected updater op")
			}
		}
	}
	for _, p := range readOnly {
		lo, hi := ctx.window(p.ex)
		for _, op := range p.rec.Ops {
			count(op)
			switch op.Kind {
			case OpGet, OpPeek:
				if op.Bool {
					// A read-only hit (peek, or get of an already-touched
					// entry): the value must match the put timeline at
					// some instant of the window.
					if !puts.matchesIn(op.Key, lo, hi, true, op.Int, true) {
						return opErr(p.ex, op, "hit observed %d, never the latest put in [%d,%d]", op.Int, lo, hi)
					}
				}
				// Misses carry no checkable value: eviction legitimately
				// removes keys the put timeline still shows. The escrow
				// identities below bound them instead.
			case OpPut:
				return opErr(p.ex, op, "put committed without writing")
			case OpLen:
				if op.Int > w.c.Capacity() {
					return opErr(p.ex, op, "observed len %d above capacity %d", op.Int, w.c.Capacity())
				}
			default:
				return opErr(p.ex, op, "unexpected read-only op")
			}
		}
	}

	// Escrow accounting vs the committed record counts, folded over the
	// stripes' counter legs.
	ehits, emisses, eevics := w.c.Stats()
	if ehits != hits || emisses != misses {
		return fmt.Errorf("lrucache: escrow counted %d hits / %d misses, records hold %d / %d",
			ehits, emisses, hits, misses)
	}
	// Structural invariants, through the exported one-shot validator (the
	// same entry point stormcheck and operational tooling use).
	if err := w.c.Check(); err != nil {
		return fmt.Errorf("lrucache: %w", err)
	}
	n, err := w.c.Len()
	if err != nil {
		return fmt.Errorf("lrucache: %w", err)
	}
	// The eviction identity that SURVIVES striping: no stripe's size ever
	// shrinks, so every insert beyond the final population evicted
	// exactly one entry. (len = min(inserts, capacity) does NOT survive:
	// one stripe can saturate its share while another sits below.)
	if n > w.c.Capacity() {
		return fmt.Errorf("lrucache: final len %d exceeds capacity %d", n, w.c.Capacity())
	}
	if eevics != inserts-int64(n) {
		return fmt.Errorf("lrucache: escrow counted %d evictions, want inserts %d - len %d = %d",
			eevics, inserts, n, inserts-int64(n))
	}
	demos := w.c.Demotions()
	if hits == 0 || misses == 0 || eevics == 0 || demos == 0 {
		return fmt.Errorf("lrucache: vacuous run (hits=%d misses=%d evictions=%d demotions=%d)",
			hits, misses, eevics, demos)
	}
	var per []string
	for i := 0; i < w.c.Stripes(); i++ {
		st := w.c.StripeStats(i)
		if probes := st.Hits + st.Misses; probes > 0 {
			per = append(per, fmt.Sprintf("s%d %.0f%% (%d/%d)", i, 100*float64(st.Hits)/float64(probes), st.Hits, probes))
		} else {
			per = append(per, fmt.Sprintf("s%d —", i))
		}
	}
	w.lastN = []string{
		fmt.Sprintf("hit-rate %.0f%% (%d/%d), %d evictions, %d demotions over %d stripes",
			100*float64(hits)/float64(hits+misses), hits, hits+misses, eevics, demos, w.c.Stripes()),
		"per-stripe hit-rate: " + strings.Join(per, ", "),
	}
	return nil
}

// notes surfaces the global and per-stripe hit rates in the storm report.
func (w *cacheWorkload) notes() []string { return w.lastN }
