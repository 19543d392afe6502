package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// This file implements the cache stripe sweep: the striped transactional
// LRU (internal/cache) measured across stripe counts × thread counts on
// a get-heavy mix. The default regime is the hit path: the key range sits
// at 7/8 of capacity, so after warming every key is resident, no stripe
// ever overflows its capacity share (Fibonacci routing spreads keys within
// a few percent of even, well inside the 12.5% slack), and the measured
// window is 100% hits with zero eviction traffic — second-chance hits only
// set a key-local bit (read-only once set). The strict-LRU baseline the
// second-chance path replaced (one stripe, every hit relinking to the
// shared MRU head) has its last measurement in BENCH_collection.json as
// "tx-lru-relink-s1". Setting KeyRange above Capacity instead selects the
// churn regime (continuous insert/evict traffic); there the conflicting
// writes are bucket-chain and tail updates, which the stripes divide but
// every configuration pays.

// CacheStripesConfig parameterizes RunCacheStripesSweep.
type CacheStripesConfig struct {
	// Capacity is the total cache bound (split across stripes).
	Capacity int
	// KeyRange is the key domain. Zero selects 7/8 of Capacity — the
	// hit-path regime: after warming, every key is resident and no
	// stripe overflows its capacity share, so the measured window is
	// pure hits. Values above Capacity select the churn regime
	// (continuous insert/evict traffic at a ~Capacity/KeyRange hit
	// rate). Values between 7/8 and Capacity are accepted but risky:
	// hash imbalance can push a stripe past its share and re-introduce
	// churn in the striped configurations only.
	KeyRange int
	// StripeCounts are the stripe configurations to sweep; zero-length
	// selects 1/2/4/8/16.
	StripeCounts []int
	// Threads are the worker counts per stripe configuration.
	Threads []int
	// Duration is the measured window per point.
	Duration time.Duration
}

func (cfg *CacheStripesConfig) fill() {
	if cfg.Capacity < 2 {
		cfg.Capacity = 2
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = cfg.Capacity * 7 / 8
		if cfg.KeyRange < 1 {
			cfg.KeyRange = 1
		}
	}
	if len(cfg.StripeCounts) == 0 {
		cfg.StripeCounts = []int{1, 2, 4, 8, 16}
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = []int{1, 8}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 250 * time.Millisecond
	}
}

// RunCacheStripesSweep measures the striped cache at every stripe count
// × thread count of cfg: a 65/25/10 get/put/peek mix (get-heavy — the
// hit path is what striping and the second-chance bit are for) over
// cfg.KeyRange keys, one Series per stripe count with its Stripes field
// set, so the trajectory records which curve is which. With w non-nil the
// table prints as it measures; with rec non-nil the series land under the
// "lru-cache-stripes" figure.
func RunCacheStripesSweep(w io.Writer, rec *JSONRun, cfg CacheStripesConfig, opts ...core.Option) ([]Series, error) {
	cfg.fill()
	if w != nil {
		fmt.Fprintf(w, "LRU cache stripe sweep: capacity %d, key range %d (get 65%% / put 25%% / peek 10%%)\n",
			cfg.Capacity, cfg.KeyRange)
		fmt.Fprintf(w, "%-16s %8s %14s %12s %10s %10s\n", "impl", "threads", "ops/s", "aborts", "abort%", "hit%")
	}
	var out []Series
	for _, ns := range cfg.StripeCounts {
		s := Series{Impl: fmt.Sprintf("tx-lru-s%d", ns), Stripes: ns}
		for _, th := range cfg.Threads {
			res, err := runCacheStripesPoint(cfg, ns, th, opts...)
			if err != nil {
				return nil, err
			}
			if w != nil {
				fmt.Fprintf(w, "%-16s %8d %14.0f %12d %9.3f%% %9.1f%%\n",
					s.Impl, th, res.Throughput, res.TxAborts, 100*res.AbortRate(), 100*res.HitRate)
			}
			s.Threads = append(s.Threads, th)
			s.Speedups = append(s.Speedups, 0) // no sequential denominator for the cache
			s.Raw = append(s.Raw, res)
		}
		out = append(out, s)
	}
	if rec != nil {
		rec.AddFigure("lru-cache-stripes", out, Result{})
	}
	return out, nil
}

func runCacheStripesPoint(cfg CacheStripesConfig, stripes, threads int, opts ...core.Option) (Result, error) {
	tm := core.New(opts...)
	c := cache.NewWith[int](tm, cfg.Capacity, cache.Options{Stripes: stripes})
	// Warm across the whole key range: in the hit-path regime every key
	// is then resident for the whole measured window; in the churn
	// regime every stripe starts at its share so eviction runs from the
	// first measured op.
	for k := 0; k < cfg.KeyRange; k++ {
		if _, err := c.Put(k, k); err != nil {
			return Result{}, err
		}
	}
	before := tm.Stats()
	preHits, preMisses, _ := c.Stats()
	res := MeasureOps(fmt.Sprintf("tx-lru-s%d", stripes), threads, cfg.Duration, 0,
		func(int) func(*Xorshift) error {
			return func(rng *Xorshift) error {
				// Separate draws for key and roll: one shared draw would
				// correlate operation class with key and skew the hit rate.
				key := rng.Intn(cfg.KeyRange)
				switch roll := rng.Intn(100); {
				case roll < 65:
					_, _, err := c.Get(key)
					return err
				case roll < 90:
					_, err := c.Put(key, int(rng.Next()))
					return err
				default:
					_, _, err := c.Peek(key)
					return err
				}
			}
		})
	if res.Errors > 0 {
		return Result{}, fmt.Errorf("cache stripe sweep s=%d t=%d: %d op error(s)", stripes, threads, res.Errors)
	}
	after := tm.Stats()
	res.TxCommits = after.Commits - before.Commits
	res.TxAborts = after.TotalAborts() - before.TotalAborts()
	res.TxAttempts = after.Attempts - before.Attempts
	hits, misses, _ := c.Stats()
	if d := (hits - preHits) + (misses - preMisses); d > 0 {
		res.HitRate = float64(hits-preHits) / float64(d)
	}
	return res, nil
}
