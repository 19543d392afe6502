// Package bench is the harness that regenerates the paper's throughput
// figures: a Collection workload generator (contains/add/remove/size with
// configurable ratios), a duration-based concurrent runner, normalization
// over the sequential baseline, and plain-text renderers matching the
// figures' series.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/intset"
)

// Workload is the Collection benchmark configuration. The paper's setting
// (Figures 5, 7, 9) is 2^12 initial elements, a 10% update ratio and a 10%
// size ratio, the rest contains.
type Workload struct {
	// InitialSize is the number of elements pre-filled before measuring.
	InitialSize int
	// KeyRange is the value domain [0, KeyRange); the default is twice
	// InitialSize so updates hold the size roughly steady.
	KeyRange int
	// UpdatePct is the percentage of operations that are updates, split
	// evenly between add and remove.
	UpdatePct int
	// SizePct is the percentage of operations that are atomic sizes.
	SizePct int
	// Duration is the measured run length per point.
	Duration time.Duration
	// Threads is the number of worker goroutines.
	Threads int
	// Seed randomizes operation choice; 0 selects a fixed default.
	Seed uint64
}

// paper parameters for the Collection figures.
const (
	PaperInitialSize = 1 << 12
	PaperUpdatePct   = 10
	PaperSizePct     = 10
)

// PaperWorkload returns the figures' workload at the given thread count,
// scaled to the given initial size (use PaperInitialSize for fidelity;
// tests use smaller lists).
func PaperWorkload(initial, threads int, d time.Duration) Workload {
	return Workload{
		InitialSize: initial,
		UpdatePct:   PaperUpdatePct,
		SizePct:     PaperSizePct,
		Duration:    d,
		Threads:     threads,
	}
}

func (w *Workload) fill() {
	if w.KeyRange == 0 {
		w.KeyRange = 2 * w.InitialSize
	}
	if w.Threads == 0 {
		w.Threads = 1
	}
	if w.Duration == 0 {
		w.Duration = 100 * time.Millisecond
	}
	if w.Seed == 0 {
		w.Seed = 0x9e3779b97f4a7c15
	}
}

// Result is one measured point.
type Result struct {
	Impl       string
	Threads    int
	Ops        uint64
	Contains   uint64
	Adds       uint64
	Removes    uint64
	Sizes      uint64
	Errors     uint64
	Elapsed    time.Duration
	Throughput float64 // ops per second

	// Transactional diagnostics (zero for non-STM baselines): commits,
	// aborts and attempts during the measured window. The abort rate is
	// the paper's section 4.3 mechanism — classic size operations abort
	// under concurrent updates, snapshot ones commit.
	TxCommits  uint64
	TxAborts   uint64
	TxAttempts uint64
}

// AbortRate returns aborts per attempt in the measured window.
func (r Result) AbortRate() float64 {
	if r.TxAttempts == 0 {
		return 0
	}
	return float64(r.TxAborts) / float64(r.TxAttempts)
}

// StatsFn reports runtime counters for instrumented (transactional)
// implementations.
type StatsFn func() core.Stats

// Factory builds a fresh, empty set for one measurement run.
type Factory struct {
	Name string
	New  func() intset.Set
	// NewInstrumented, when set, is used instead of New and additionally
	// exposes the runtime counters of the set's private TM.
	NewInstrumented func() (intset.Set, StatsFn)
	// SupportsAtomicSize is false for fine-grained baselines whose Size
	// is not a snapshot; the figure runners exclude them from
	// size-bearing workloads (they are used in parse-only ablations).
	SupportsAtomicSize bool
	// Sequential marks the single-thread-only baseline.
	Sequential bool
}

// build constructs the set, preferring the instrumented constructor.
func (f Factory) build() (intset.Set, StatsFn) {
	if f.NewInstrumented != nil {
		return f.NewInstrumented()
	}
	return f.New(), nil
}

// Xorshift is a tiny per-worker PRNG; workers must not share math/rand
// state (lock contention would dominate the measurement).
type Xorshift uint64

// Next advances the generator and returns the raw 64-bit state.
func (x *Xorshift) Next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// Intn returns a pseudo-random int in [0, n).
func (x *Xorshift) Intn(n int) int {
	return int(x.Next() % uint64(n))
}

// Prefill inserts InitialSize distinct pseudo-random values.
func Prefill(s intset.Set, w Workload) error {
	w.fill()
	rng := Xorshift(w.Seed | 1)
	inserted := 0
	for inserted < w.InitialSize {
		ok, err := s.Add(rng.Intn(w.KeyRange))
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if ok {
			inserted++
		}
	}
	return nil
}

// Run measures one (implementation, workload) point: it prefils the set,
// starts w.Threads workers issuing the operation mix for w.Duration, and
// returns the aggregate counts, with throughput computed over the true
// elapsed window.
func Run(f Factory, w Workload) (Result, error) {
	w.fill()
	set, statsFn := f.build()
	if err := Prefill(set, w); err != nil {
		return Result{}, err
	}
	var before core.Stats
	if statsFn != nil {
		before = statsFn() // exclude prefill from the measured counters
	}

	type workerCounts struct {
		contains, adds, removes, sizes, errs uint64
		_                                    [24]byte
	}
	counts := make([]workerCounts, w.Threads)
	var (
		stop  atomic.Bool
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for t := 0; t < w.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := Xorshift(w.Seed + uint64(t)*0x9e3779b97f4a7c15 + 1)
			c := &counts[t]
			<-start
			for !stop.Load() {
				op := rng.Intn(100)
				v := rng.Intn(w.KeyRange)
				var err error
				switch {
				case op < w.SizePct:
					_, err = set.Size()
					c.sizes++
				case op < w.SizePct+w.UpdatePct/2:
					_, err = set.Add(v)
					c.adds++
				case op < w.SizePct+w.UpdatePct:
					_, err = set.Remove(v)
					c.removes++
				default:
					_, err = set.Contains(v)
					c.contains++
				}
				if err != nil {
					c.errs++
				}
			}
		}(t)
	}
	began := time.Now()
	close(start)
	time.Sleep(w.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(began)

	res := Result{Impl: f.Name, Threads: w.Threads, Elapsed: elapsed}
	for i := range counts {
		res.Contains += counts[i].contains
		res.Adds += counts[i].adds
		res.Removes += counts[i].removes
		res.Sizes += counts[i].sizes
		res.Errors += counts[i].errs
	}
	res.Ops = res.Contains + res.Adds + res.Removes + res.Sizes
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	if statsFn != nil {
		after := statsFn()
		res.TxCommits = after.Commits - before.Commits
		res.TxAborts = after.TotalAborts() - before.TotalAborts()
		res.TxAttempts = after.Attempts - before.Attempts
	}
	return res, nil
}

// Series is one implementation's speedup-over-sequential curve.
type Series struct {
	Impl     string
	Threads  []int
	Speedups []float64
	Raw      []Result
}

// Sweep measures every factory across the thread counts and normalizes
// by the sequential baseline's single-thread throughput on the same
// workload. The sequential factory is measured once at one thread.
func Sweep(seq Factory, impls []Factory, threads []int, base Workload) ([]Series, Result, error) {
	seqWL := base
	seqWL.Threads = 1
	seqRes, err := Run(seq, seqWL)
	if err != nil {
		return nil, Result{}, fmt.Errorf("sequential baseline: %w", err)
	}
	out := make([]Series, 0, len(impls))
	for _, f := range impls {
		s := Series{Impl: f.Name}
		for _, th := range threads {
			wl := base
			wl.Threads = th
			r, err := Run(f, wl)
			if err != nil {
				return nil, Result{}, fmt.Errorf("%s @%d threads: %w", f.Name, th, err)
			}
			s.Threads = append(s.Threads, th)
			s.Speedups = append(s.Speedups, r.Throughput/seqRes.Throughput)
			s.Raw = append(s.Raw, r)
		}
		out = append(out, s)
	}
	return out, seqRes, nil
}
