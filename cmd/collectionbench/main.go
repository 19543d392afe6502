// Command collectionbench regenerates the throughput figures of
// "Democratizing Transactional Programming" (Figures 5, 7 and 9): the
// Collection benchmark — contains/add/remove plus an atomic size — run
// against classic transactions, mixed-semantics transactions, and the
// copy-on-write concurrent collection, normalized over sequential code.
//
// Usage:
//
//	collectionbench [-fig 5|7|9|all|none] [-size 4096] [-dur 250ms]
//	                [-threads 1,2,4,8,16,32,64] [-update 10] [-sizepct 10]
//	                [-scheme gv1|gvpass|gvsharded] [-extra] [-typed=true]
//	                [-cache] [-cachestripes] [-cachekeys 0] [-persist]
//	                [-readpath] [-shards]
//	                [-procs 2,4,8] [-json] [-out BENCH_collection.json]
//	                [-label run] [-soak=true]
//
// -cache appends a transactional-LRU sweep (internal/cache: throughput,
// abort rate and hit rate per thread count); -fig none runs it standalone.
//
// -cachestripes appends the cache stripe sweep: the striped LRU measured
// at 1/2/4/8/16 stripes across the thread counts on a get-heavy mix. By
// default the sweep runs the hit-path regime (key range 7/8 of capacity:
// pure hits, no eviction); -cachekeys overrides the key range, and values
// above the capacity (-size/2) select the insert/evict churn regime
// instead. The trajectory records each curve's stripe count in the
// series' "stripes" field.
//
// -readpath appends the privatization read-path sweep: the same map read
// through classic transactions, a pinned snapshot, and privatized plain
// loads (core.TM.Privatize), with the privatized-over-pinned ratio per
// thread count.
//
// -procs repeats the whole run once per GOMAXPROCS value, so one
// invocation measures a true many-core sweep; each repetition is its own
// trajectory run and the recorded host topology (CPU count, model,
// GOMAXPROCS) keeps them interpretable.
//
// -shards appends the partitioned-store sweep (internal/shard): the
// paper's Collection mix (-update point updates, -sizepct whole-domain
// atomic scans) behind 1/2/4/8 independent clock domains on disjoint
// worker key stripes, then a cross-shard mix sweep at 4 shards pricing
// the 2PC coordinator against the single-shard fast path.
//
// -persist appends a durable-persistence sweep (internal/persistmap):
// pinned full backup, pin-to-pin incremental diff, on-disk chain write,
// checksum-verified chain load and copy-on-write restore, per map size —
// followed by a write-ahead-log group-commit sweep: durable commits/s
// from 8 concurrent committers as the fsync batch cap grows 1 → 256.
//
// -typed=false swaps the transactional lists for their untyped boxing
// comparators (nodes in `any`-payload cells), so one binary measures what
// the typed-cell records buy on the update path.
//
// Every sweep is preceded by a short mixed-semantics storm (internal/storm)
// under the same clock scheme, so each performance run doubles as a
// correctness run: a sweep whose runtime violates opacity, the elastic cut
// rule or snapshot consistency fails before a single number is printed.
// -soak=false skips it. With -json the run's per-point throughput, abort
// rates and configuration are appended to the -out trajectory file.
//
// The paper's setting is -size 4096 -update 10 -sizepct 10 on a 64-way
// Niagara 2; on smaller hosts the sweep oversubscribes beyond the core
// count, which preserves the figures' shape (who wins and where curves
// bend) but not absolute speedups.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/persistmap"
	"repro/internal/persistmap/walsync"
	"repro/internal/storm"
	"repro/internal/txstruct"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "collectionbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("collectionbench", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: 5, 7, 9 or all")
		size     = fs.Int("size", bench.PaperInitialSize, "initial collection size")
		dur      = fs.Duration("dur", 250*time.Millisecond, "measurement duration per point")
		threads  = fs.String("threads", "1,2,4,8,16,32,64", "comma-separated thread counts")
		update   = fs.Int("update", bench.PaperUpdatePct, "update percentage")
		sizePct  = fs.Int("sizepct", bench.PaperSizePct, "size-operation percentage")
		extra    = fs.Bool("extra", false, "also run the parse-only baseline comparison (no size ops)")
		jsonOut  = fs.Bool("json", false, "append the run to the JSON trajectory file")
		outPath  = fs.String("out", "BENCH_collection.json", "JSON trajectory file (with -json)")
		runLabel = fs.String("label", "run", "label recorded for this run in the trajectory")
		schemeFl = fs.String("scheme", "gv1", "clock scheme for the transactional implementations")
		soak     = fs.Bool("soak", true, "run a correctness storm before the sweep")
		typed    = fs.Bool("typed", true, "bench the typed-cell lists; false swaps in the untyped boxing comparators")
		cacheFl  = fs.Bool("cache", false, "also sweep the transactional LRU cache (internal/cache)")
		cacheStr = fs.Bool("cachestripes", false, "also sweep the cache stripe counts (1/2/4/8/16 stripes × threads)")
		cacheKey = fs.Int("cachekeys", 0, "cache stripe sweep key range (0 = 7/8 of capacity, the pure-hit regime; above capacity = churn)")
		persist  = fs.Bool("persist", false, "also sweep the durable persistence pipeline (internal/persistmap)")
		readpath = fs.Bool("readpath", false, "also sweep the privatization read path (classic vs pinned vs privatized reads)")
		shardsFl = fs.Bool("shards", false, "also sweep the partitioned store (threads × shard count, plus cross-shard mix ratio)")
		procsFl  = fs.String("procs", "", "comma-separated GOMAXPROCS values: repeat the whole run per value (empty = current setting)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ths, err := parseThreads(*threads)
	if err != nil {
		return err
	}
	scheme, err := clock.ParseScheme(*schemeFl)
	if err != nil {
		return err
	}
	opts := []core.Option{core.WithClockScheme(scheme)}
	wl := bench.Workload{
		InitialSize: *size,
		UpdatePct:   *update,
		SizePct:     *sizePct,
		Duration:    *dur,
	}

	var figures []bench.Figure
	switch *fig {
	case "none":
		// No figure sweep — e.g. a standalone -cache run.
	case "5":
		figures = []bench.Figure{bench.Figure5(wl, ths, opts...)}
	case "7":
		figures = []bench.Figure{bench.Figure7(wl, ths, opts...)}
	case "9":
		figures = []bench.Figure{bench.Figure9(wl, ths, opts...)}
	case "all":
		figures = []bench.Figure{
			bench.Figure5(wl, ths, opts...),
			bench.Figure7(wl, ths, opts...),
			bench.Figure9(wl, ths, opts...),
		}
	default:
		return fmt.Errorf("unknown figure %q (want 5, 7, 9, all or none)", *fig)
	}
	if !*typed {
		// The boxing comparator: the same figures over lists whose nodes
		// live in untyped cells, so one binary measures the typed-cell win.
		for i := range figures {
			boxed, err := bench.BoxedVariant(figures[i])
			if err != nil {
				return err
			}
			figures[i] = boxed
		}
	}
	procs, err := parseProcs(*procsFl)
	if err != nil {
		return err
	}
	if *soak {
		if err := runSoak(scheme); err != nil {
			return err
		}
	}
	// runOnce is the whole measured suite at the current GOMAXPROCS; with
	// -procs it repeats per value, each repetition its own trajectory run
	// (the recorded host topology tells them apart).
	runOnce := func(label string) error {
		var rec *bench.JSONRun
		if *jsonOut {
			rec = bench.NewJSONRun("collectionbench", label, scheme.String(), wl)
		}
		for i, f := range figures {
			if i > 0 {
				fmt.Println()
			}
			series, seq, err := bench.RunFigureFull(os.Stdout, f)
			if err != nil {
				return err
			}
			if rec != nil {
				rec.AddFigure(f.Name, series, seq)
			}
		}
		if *extra {
			fmt.Println()
			parseOnly := wl
			parseOnly.SizePct = 0
			extraFig := bench.Figure{
				Name:    "parse-only",
				Caption: "No size ops: fine-grained and lock-free baselines join the comparison",
				Impls: []bench.Factory{
					bench.SnapshotMixedFactory(opts...),
					bench.ClassicSTMFactory(opts...),
					bench.HoHFactory(),
					bench.LazyFactory(),
					bench.HarrisFactory(),
					bench.HashSetFactory("tx-hashset", 64, txstruct.ListConfig{
						Parse: core.Elastic, Size: core.Snapshot,
					}, opts...),
				},
				Workload: parseOnly,
				Threads:  ths,
			}
			series, seq, err := bench.RunFigureFull(os.Stdout, extraFig)
			if err != nil {
				return err
			}
			if rec != nil {
				rec.AddFigure(extraFig.Name, series, seq)
			}
		}
		if *cacheFl {
			fmt.Println()
			if err := runCacheSweep(rec, *size, ths, *dur, scheme); err != nil {
				return err
			}
		}
		if *cacheStr {
			fmt.Println()
			capacity := *size / 2
			if _, err := bench.RunCacheStripesSweep(os.Stdout, rec, bench.CacheStripesConfig{
				Capacity: capacity,
				KeyRange: *cacheKey,
				Threads:  ths,
				Duration: *dur,
			}, core.WithClockScheme(scheme)); err != nil {
				return err
			}
		}
		if *persist {
			fmt.Println()
			if err := runPersistSweep(rec, *size, *dur, scheme); err != nil {
				return err
			}
			fmt.Println()
			if err := runWALSweep(rec, *dur, scheme); err != nil {
				return err
			}
		}
		if *readpath {
			fmt.Println()
			if err := bench.RunReadPathSweep(os.Stdout, rec, *size, ths, *dur, core.WithClockScheme(scheme)); err != nil {
				return err
			}
		}
		if *shardsFl {
			fmt.Println()
			if err := bench.RunShardSweep(os.Stdout, rec, *size, *update, *sizePct, ths, *dur, core.WithClockScheme(scheme)); err != nil {
				return err
			}
		}
		if rec != nil {
			if err := bench.AppendJSONRun(*outPath, rec); err != nil {
				return err
			}
			fmt.Printf("\nappended run %q to %s\n", label, *outPath)
		}
		return nil
	}
	for i, p := range procs {
		label := *runLabel
		if p > 0 {
			runtime.GOMAXPROCS(p)
			label = fmt.Sprintf("%s@procs=%d", label, p)
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("=== GOMAXPROCS=%d ===\n", p)
		}
		if err := runOnce(label); err != nil {
			return err
		}
	}
	return nil
}

// parseProcs parses the -procs list; empty input yields a single
// sentinel 0 ("leave GOMAXPROCS alone").
func parseProcs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{0}, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -procs value %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

// runCacheSweep measures the transactional LRU cache (internal/cache)
// across the thread counts: a 60/25/10/5 get/put/peek/len mix over a key
// range twice the cache capacity, reporting throughput, abort rate and
// hit rate per point. With -json the points land in the trajectory under
// the "lru-cache" figure.
func runCacheSweep(rec *bench.JSONRun, size int, threads []int, dur time.Duration, scheme clock.Scheme) error {
	capacity := size / 2
	if capacity < 2 {
		capacity = 2
	}
	keyRange := 2 * capacity
	fmt.Printf("LRU cache sweep: capacity %d, key range %d (get 60%% / put 25%% / peek 10%% / len 5%%)\n",
		capacity, keyRange)
	fmt.Printf("%8s %14s %10s %10s\n", "threads", "ops/s", "abort%", "hit%")
	// One series, one point per thread count — the same shape as the
	// figure curves, so trajectory consumers can plot it as one curve.
	// There is no sequential denominator for the cache, so the figure's
	// seq throughput is zero and the speedup fields stay empty.
	series := bench.Series{Impl: fmt.Sprintf("tx-lru-cap%d", capacity)}
	for _, th := range threads {
		res, err := runCachePoint(capacity, keyRange, th, dur, scheme)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %14.0f %9.1f%% %9.1f%%\n",
			th, res.Throughput, 100*res.AbortRate(), 100*res.HitRate)
		series.Threads = append(series.Threads, th)
		series.Speedups = append(series.Speedups, 0)
		series.Raw = append(series.Raw, res)
	}
	if rec != nil {
		rec.AddFigure("lru-cache", []bench.Series{series}, bench.Result{})
	}
	return nil
}

func runCachePoint(capacity, keyRange, threads int, dur time.Duration, scheme clock.Scheme) (bench.Result, error) {
	tm := core.New(core.WithClockScheme(scheme))
	c := cache.New[int](tm, capacity)
	// Warm to capacity so eviction runs from the start.
	for k := 0; k < capacity; k++ {
		if _, err := c.Put(k, k); err != nil {
			return bench.Result{}, err
		}
	}
	before := tm.Stats()
	res := bench.MeasureOps("tx-lru", threads, dur, 0, func(int) func(*bench.Xorshift) error {
		return func(rng *bench.Xorshift) error {
			// Separate draws for key and roll: taking both from one draw
			// correlates operation class with key (keyRange is even) and
			// skews the hit rate.
			key := rng.Intn(keyRange)
			switch roll := rng.Intn(100); {
			case roll < 60:
				_, _, err := c.Get(key)
				return err
			case roll < 85:
				_, err := c.Put(key, int(rng.Next()))
				return err
			case roll < 95:
				_, _, err := c.Peek(key)
				return err
			default:
				_, err := c.Len()
				return err
			}
		}
	})
	after := tm.Stats()
	res.TxCommits = after.Commits - before.Commits
	res.TxAborts = after.TotalAborts() - before.TotalAborts()
	res.TxAttempts = after.Attempts - before.Attempts
	hits, misses, _ := c.Stats()
	if hits+misses > 0 {
		res.HitRate = float64(hits) / float64(hits+misses)
	}
	return res, nil
}

// runPersistSweep measures the durable persistence pipeline
// (internal/persistmap) across map sizes: consistent full backup under a
// pin, pin-to-pin incremental diff over ~6% churn, full-chain disk write,
// chain load (full + diff, checksum-verified), and copy-on-write restore
// into a second map. Each measurement is the whole macro-operation, so the
// printed figures are pipeline operations per second at that map size.
// With -json the points land under the "durable-persist" figure, one
// one-point series per (operation, size).
func runPersistSweep(rec *bench.JSONRun, size int, dur time.Duration, scheme clock.Scheme) error {
	var sizes []int
	for _, n := range []int{size / 4, size / 2, size} {
		if n >= 16 && (len(sizes) == 0 || n != sizes[len(sizes)-1]) {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		sizes = []int{size}
	}
	fmt.Println("durable-persist sweep: macro-ops/s per map size (backup = pinned chunked copy," +
		" diff = pin-to-pin walk over ~6% churn, write/load = full+diff chain on disk, restore = COW replace)")
	fmt.Printf("%8s %8s %12s %12s %12s %12s %12s\n",
		"size", "churn", "backup/s", "diff/s", "write/s", "load/s", "restore/s")
	for _, n := range sizes {
		if err := runPersistPoint(rec, n, dur, scheme); err != nil {
			return err
		}
	}
	return nil
}

func runPersistPoint(rec *bench.JSONRun, n int, dur time.Duration, scheme clock.Scheme) error {
	tm := core.New(core.WithClockScheme(scheme))
	m := persistmap.New[int](tm)
	for k := 0; k < n; k++ {
		if _, err := m.Put(k, k); err != nil {
			return err
		}
	}
	churn := n / 16
	if churn < 8 {
		churn = 8
	}
	pOld, err := tm.PinSnapshot()
	if err != nil {
		return err
	}
	defer pOld.Release()
	base, err := m.BackupAt(pOld)
	if err != nil {
		return err
	}
	for i := 0; i < churn; i++ {
		k := (i * 37) % (n + n/4 + 1)
		if i%3 == 0 {
			if _, err := m.Delete(k); err != nil {
				return err
			}
		} else if _, err := m.Put(k, -i); err != nil {
			return err
		}
	}
	pNew, err := tm.PinSnapshot()
	if err != nil {
		return err
	}
	defer pNew.Release()
	d, err := m.Diff(pOld, pNew)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "persistbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := persistmap.NewStore(dir, persistmap.IntCodec{})
	if err != nil {
		return err
	}
	if _, err := store.WriteFull(base); err != nil {
		return err
	}
	if _, err := store.WriteDiff(d); err != nil {
		return err
	}
	tm2 := core.New(core.WithClockScheme(scheme))
	m2 := persistmap.New[int](tm2)

	ops := []struct {
		name string
		op   func() error
	}{
		{"backup", func() error { _, err := m.Backup(); return err }},
		{"diff", func() error { _, err := m.Diff(pOld, pNew); return err }},
		{"write", func() error { _, err := store.WriteFull(base); return err }},
		{"load", func() error { _, err := store.Load(); return err }},
		{"restore", func() error { return m2.Restore(base) }},
	}
	fmt.Printf("%8d %8d", n, d.Len())
	for _, o := range ops {
		op := o.op
		res := bench.MeasureOps(fmt.Sprintf("persist-%s-n%d", o.name, n), 1, dur, 0,
			func(int) func(*bench.Xorshift) error {
				return func(*bench.Xorshift) error { return op() }
			})
		if res.Errors > 0 {
			return fmt.Errorf("persist sweep %s at size %d: %d op error(s)", o.name, n, res.Errors)
		}
		fmt.Printf(" %12.0f", res.Throughput)
		if rec != nil {
			rec.AddPoint("durable-persist", res.Impl, res)
		}
	}
	fmt.Println()
	return nil
}

// runWALSweep measures durable (group-commit) transaction throughput
// against the fsync batch cap: 8 committers each blocking on the WAL ack
// of their own commit, swept over MaxBatch 1..256. At cap 1 every commit
// pays a private fsync; as the cap grows, concurrent committers share one
// — the classic group-commit amortization curve. With -json the points
// land under the "wal-group-commit" figure, one one-point series per cap.
func runWALSweep(rec *bench.JSONRun, dur time.Duration, scheme clock.Scheme) error {
	const committers = 8
	fmt.Printf("wal group-commit sweep: %d durable committers, commits/s vs fsync batch cap\n", committers)
	fmt.Printf("%8s %14s %10s %10s %10s\n", "batch", "commits/s", "avgbatch", "maxbatch", "fsyncs")
	for _, cap := range []int{1, 4, 16, 64, 256} {
		res, stats, err := runWALPoint(cap, committers, dur, scheme)
		if err != nil {
			return err
		}
		avg := 0.0
		if stats.Batches > 0 {
			avg = float64(stats.Records) / float64(stats.Batches)
		}
		fmt.Printf("%8d %14.0f %10.1f %10d %10d\n",
			cap, res.Throughput, avg, stats.MaxBatch, stats.Batches)
		if rec != nil {
			rec.AddPoint("wal-group-commit", res.Impl, res)
		}
	}
	return nil
}

func runWALPoint(maxBatch, committers int, dur time.Duration, scheme clock.Scheme) (bench.Result, walsync.Stats, error) {
	dir, err := os.MkdirTemp("", "walbench-")
	if err != nil {
		return bench.Result{}, walsync.Stats{}, err
	}
	defer os.RemoveAll(dir)
	tm := core.New(core.WithClockScheme(scheme))
	m := persistmap.New[int](tm)
	store, err := persistmap.NewStore(dir, persistmap.IntCodec{})
	if err != nil {
		return bench.Result{}, walsync.Stats{}, err
	}
	w, err := store.OpenWAL(persistmap.WALOptions{MaxBatch: maxBatch})
	if err != nil {
		return bench.Result{}, walsync.Stats{}, err
	}
	m.AttachWAL(w, true)
	// Disjoint key stripes per committer: the sweep measures the fsync
	// path, not conflict aborts.
	const stride = 64
	res := bench.MeasureOps(fmt.Sprintf("wal-commit-b%d-t%d", maxBatch, committers),
		committers, dur, 0, func(worker int) func(*bench.Xorshift) error {
			base := worker * stride
			return func(rng *bench.Xorshift) error {
				_, err := m.Put(base+rng.Intn(stride), int(rng.Next()))
				return err
			}
		})
	stats := w.Stats()
	if err := w.Close(); err != nil {
		return bench.Result{}, walsync.Stats{}, err
	}
	if res.Errors > 0 {
		return bench.Result{}, walsync.Stats{}, fmt.Errorf("wal sweep batch %d: %d commit error(s)", maxBatch, res.Errors)
	}
	return res, stats, nil
}

// runSoak runs the shared pre-sweep correctness storm (storm.Soak) under
// the clock scheme about to be measured.
func runSoak(scheme clock.Scheme) error {
	fmt.Printf("soak: storms over linkedlist+typedcells under %s … ", scheme)
	reps, err := storm.Soak(scheme)
	if err != nil {
		fmt.Println("FAILED")
		return err
	}
	fmt.Print("ok (")
	for i, rep := range reps {
		if i > 0 {
			fmt.Print("; ")
		}
		fmt.Printf("%s: %d commits, %s", rep.Workload, rep.Stats.Commits, rep.Verdict)
	}
	fmt.Print(")\n\n")
	return nil
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thread counts given")
	}
	return out, nil
}
