package repro_test

// Benchmark harness: one testing.B target per figure of the paper plus
// the design-choice ablations (contention manager, version depth, elastic
// window, early release, read extension). cmd/collectionbench sweeps the
// full figures; this file gives ns/op views of the same workloads and is
// the only harness for the ablations.

import (
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/txstruct"
)

// benchInitialSize keeps testing.B runs fast; the command-line harness
// uses the paper's 4096.
const benchInitialSize = 512

// runCollectionMix drives the paper's operation mix (80% contains, 10%
// updates, 10% sizes) through b.N operations across RunParallel workers.
func runCollectionMix(b *testing.B, set intset.Set, sizePct, updatePct int) {
	b.Helper()
	w := bench.Workload{InitialSize: benchInitialSize}
	if err := bench.Prefill(set, w); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := seq.Add(1) * 0x9e3779b97f4a7c15
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		for pb.Next() {
			op := next(100)
			v := next(2 * benchInitialSize)
			var err error
			switch {
			case op < sizePct:
				_, err = set.Size()
			case op < sizePct+updatePct/2:
				_, err = set.Add(v)
			case op < sizePct+updatePct:
				_, err = set.Remove(v)
			default:
				_, err = set.Contains(v)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 4: schedule enumeration ---------------------------------------

func BenchmarkFig4ScheduleEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sched.Figure4()
		if r.Total != 20 {
			b.Fatalf("total %d", r.Total)
		}
	}
}

// --- Figures 5, 7, 9: the Collection benchmark ----------------------------

func BenchmarkFig5SequentialBaseline(b *testing.B) {
	// Single-goroutine denominator (sequential list is not thread-safe).
	set, _ := factoryBuild(bench.SequentialFactory())
	w := bench.Workload{InitialSize: benchInitialSize}
	if err := bench.Prefill(set, w); err != nil {
		b.Fatal(err)
	}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := next(100)
		v := next(2 * benchInitialSize)
		switch {
		case op < 10:
			_, _ = set.Size()
		case op < 15:
			_, _ = set.Add(v)
		case op < 20:
			_, _ = set.Remove(v)
		default:
			_, _ = set.Contains(v)
		}
	}
}

func factoryBuild(f bench.Factory) (intset.Set, bench.StatsFn) {
	if f.NewInstrumented != nil {
		return f.NewInstrumented()
	}
	return f.New(), nil
}

func BenchmarkFig5ClassicTL2(b *testing.B) {
	set, _ := factoryBuild(bench.ClassicSTMFactory())
	runCollectionMix(b, set, 10, 10)
}

func BenchmarkFig5Collection(b *testing.B) {
	set, _ := factoryBuild(bench.COWFactory())
	runCollectionMix(b, set, 10, 10)
}

func BenchmarkFig7ElasticClassic(b *testing.B) {
	set, _ := factoryBuild(bench.ElasticMixedFactory())
	runCollectionMix(b, set, 10, 10)
}

func BenchmarkFig9SnapshotMixed(b *testing.B) {
	set, _ := factoryBuild(bench.SnapshotMixedFactory())
	runCollectionMix(b, set, 10, 10)
}

// --- Per-semantics microbenchmarks (read/commit path costs) ---------------

func BenchmarkReadPerSemantics(b *testing.B) {
	for _, sem := range []repro.Semantics{repro.Classic, repro.Elastic, repro.Snapshot} {
		b.Run(sem.String(), func(b *testing.B) {
			tm := repro.New()
			const chain = 64
			vars := make([]*repro.Var[int], chain)
			for i := range vars {
				vars[i] = repro.NewVar(tm, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := tm.Atomically(sem, func(tx *repro.Tx) error {
					for _, v := range vars {
						_ = v.Get(tx)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chain), "ns/read")
		})
	}
}

func BenchmarkCommitUpdate(b *testing.B) {
	for _, sem := range []repro.Semantics{repro.Classic, repro.Elastic} {
		b.Run(sem.String(), func(b *testing.B) {
			tm := repro.New()
			v := repro.NewVar(tm, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tm.Atomically(sem, func(tx *repro.Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAtomicallyFixedCost is what a transaction costs before it does
// any work: an empty classic call, one read of a shared cell, and one
// increment of a cell of the goroutine's own, each alone and from every
// RunParallel goroutine at once. The parallel rows show shared-cache-line
// writes on the begin/commit path; only the update commit's clock draw is
// inherently shared.
func BenchmarkAtomicallyFixedCost(b *testing.B) {
	bodies := []struct {
		name string
		body func(tm *repro.TM, shared *repro.Var[int]) func(*repro.Tx) error
	}{
		{"empty", func(*repro.TM, *repro.Var[int]) func(*repro.Tx) error {
			return func(*repro.Tx) error { return nil }
		}},
		{"one-read", func(_ *repro.TM, shared *repro.Var[int]) func(*repro.Tx) error {
			return func(tx *repro.Tx) error { _ = shared.Get(tx); return nil }
		}},
		{"one-write", func(tm *repro.TM, _ *repro.Var[int]) func(*repro.Tx) error {
			own := repro.NewVar(tm, 0)
			return func(tx *repro.Tx) error { own.Set(tx, own.Get(tx)+1); return nil }
		}},
	}
	run := func(b *testing.B, tm *repro.TM, fn func(*repro.Tx) error) {
		if err := tm.Atomically(repro.Classic, fn); err != nil {
			b.Fatal(err)
		}
	}
	for _, bd := range bodies {
		b.Run(bd.name+"/serial", func(b *testing.B) {
			tm := repro.New()
			fn := bd.body(tm, repro.NewVar(tm, 1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(b, tm, fn)
			}
		})
		b.Run(bd.name+"/parallel", func(b *testing.B) {
			tm := repro.New()
			shared := repro.NewVar(tm, 1)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				fn := bd.body(tm, shared)
				for pb.Next() {
					run(b, tm, fn)
				}
			})
		})
	}
}

// --- Ablation: contention-manager policies on a hot spot ------------------

func BenchmarkAblationContentionManager(b *testing.B) {
	for _, name := range cm.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			policy, err := cm.New(name)
			if err != nil {
				b.Fatal(err)
			}
			tm := repro.New(repro.WithContentionManager(policy))
			hot := repro.NewVar(tm, 0)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
						hot.Set(tx, hot.Get(tx)+1)
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(100*tm.Stats().AbortRate(), "abort-%")
		})
	}
}

// --- Ablation: retained version depth vs snapshot success -----------------

func BenchmarkAblationVersionDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4} {
		depth := depth
		b.Run(map[int]string{1: "k1", 2: "k2", 4: "k4"}[depth], func(b *testing.B) {
			f := bench.STMListFactoryWith("vdepth", txstruct.ListConfig{
				Parse: core.Elastic, Size: core.Snapshot,
			}, core.WithMaxVersions(depth))
			set, stats := factoryBuild(f)
			runCollectionMix(b, set, 20, 20) // heavier sizes+updates stress the history depth
			if stats != nil {
				st := stats()
				b.ReportMetric(float64(st.Aborts[core.AbortSnapshotTooOld]), "snapshot-too-old")
			}
		})
	}
}

// --- Ablation: elastic window size -----------------------------------------

func BenchmarkAblationElasticWindow(b *testing.B) {
	// Window sizes beyond 2 buy nothing on list parses but cost validation
	// work; window 1 is excluded (documented as unsafe for remove).
	for _, ws := range []int{2, 3, 4, 8} {
		ws := ws
		b.Run(map[int]string{2: "w2", 3: "w3", 4: "w4", 8: "w8"}[ws], func(b *testing.B) {
			f := bench.STMListFactoryWith("win", txstruct.ListConfig{
				Parse: core.Elastic, Size: core.Snapshot,
			}, core.WithElasticWindow(ws))
			set, stats := factoryBuild(f)
			runCollectionMix(b, set, 10, 10)
			// The counters include the single-threaded prefill: no aborts,
			// and its cuts vanish against b.N at the default benchtime.
			st := stats()
			b.ReportMetric(100*st.AbortRate(), "abort-%")
			b.ReportMetric(float64(st.Cuts)/float64(b.N), "cuts/op")
		})
	}
}

// --- Ablation: early release vs elastic on a pure parse -------------------

func BenchmarkAblationEarlyReleaseVsElastic(b *testing.B) {
	const chain = 128
	build := func() (*repro.TM, []*repro.Var[int]) {
		tm := repro.New()
		vars := make([]*repro.Var[int], chain)
		for i := range vars {
			vars[i] = repro.NewVar(tm, i)
		}
		return tm, vars
	}
	b.Run("classic-early-release", func(b *testing.B) {
		tm, vars := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := tm.Atomically(repro.Classic, func(tx *repro.Tx) error {
				for j, v := range vars {
					_ = v.Get(tx)
					if j >= 2 {
						vars[j-2].Release(tx) // hand-rolled window of 2
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("elastic", func(b *testing.B) {
		tm, vars := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := tm.Atomically(repro.Elastic, func(tx *repro.Tx) error {
				for _, v := range vars {
					_ = v.Get(tx)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: read-version extension (LSA) vs plain TL2 vs elastic --------

func BenchmarkAblationReadExtension(b *testing.B) {
	cases := []struct {
		name string
		cfg  txstruct.ListConfig
		opts []core.Option
	}{
		{"tl2-classic", txstruct.ListConfig{Parse: core.Classic, Size: core.Classic}, nil},
		{"lsa-extension", txstruct.ListConfig{Parse: core.Classic, Size: core.Classic},
			[]core.Option{core.WithReadExtension(true)}},
		{"elastic", txstruct.ListConfig{Parse: core.Elastic, Size: core.Classic}, nil},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			f := bench.STMListFactoryWith(tc.name, tc.cfg, tc.opts...)
			set, stats := factoryBuild(f)
			runCollectionMix(b, set, 0, 20) // update-heavy parse workload
			if stats != nil {
				st := stats()
				b.ReportMetric(100*st.AbortRate(), "abort-%")
			}
		})
	}
}

// --- Additional structure: transactional hash set --------------------------

func BenchmarkHashSetMixed(b *testing.B) {
	f := bench.HashSetFactory("hashset", 64, txstruct.ListConfig{
		Parse: core.Elastic, Size: core.Snapshot,
	})
	set, _ := factoryBuild(f)
	runCollectionMix(b, set, 10, 10)
}

// --- The ordered map, over one benchmark/ shard's keys ---------------------

// BenchmarkTreeMap measures txstruct.TreeMapOf over the keys one shard of
// the composite-store benchmark holds (the 16 384 keys of 0..65535 that a
// 4-shard partition routes to shard 0, bound ascending in transactions of
// 8, as the store's set-up does): a classic get and overwrite of a bound
// key, an insert of a key the shard does not hold, and a snapshot scan of
// [k, k+64], which holds 16 of the shard's keys on average.
func BenchmarkTreeMap(b *testing.B) {
	const numKeys, scanSpan = 1 << 16, 64
	part := shard.New(4)
	var bound, free []int
	for k := 0; k < numKeys; k++ {
		if part.ShardForKey(k) == 0 {
			bound = append(bound, k)
		} else {
			free = append(free, k)
		}
	}
	build := func(b *testing.B) (*core.TM, *txstruct.TreeMapOf[int]) {
		tm := core.New()
		m := txstruct.NewTreeMapOf[int](tm, core.Snapshot)
		for lo := 0; lo < len(bound); lo += 8 {
			if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
				for _, k := range bound[lo:min(lo+8, len(bound))] {
					m.PutTx(tx, k, k)
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		return tm, m
	}
	// pick walks keys in a fixed pseudo-random order.
	pick := func(keys []int, i int) int { return keys[uint(i)*0x9e3779b1%uint(len(keys))] }
	var key, sink int
	ops := []struct {
		name string
		sem  core.Semantics
		fn   func(m *txstruct.TreeMapOf[int]) func(*core.Tx) error
	}{
		{"get", core.Classic, func(m *txstruct.TreeMapOf[int]) func(*core.Tx) error {
			return func(tx *core.Tx) error { v, _ := m.GetTx(tx, key); sink += v; return nil }
		}},
		{"overwrite", core.Classic, func(m *txstruct.TreeMapOf[int]) func(*core.Tx) error {
			return func(tx *core.Tx) error { m.PutTx(tx, key, key); return nil }
		}},
		{"insert", core.Classic, func(m *txstruct.TreeMapOf[int]) func(*core.Tx) error {
			return func(tx *core.Tx) error { m.PutTx(tx, key, key); return nil }
		}},
		{"range16", core.Snapshot, func(m *txstruct.TreeMapOf[int]) func(*core.Tx) error {
			visit := func(k, v int) bool { sink += v; return true }
			return func(tx *core.Tx) error { m.RangeTx(tx, key, key+scanSpan, visit); return nil }
		}},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			tm, m := build(b)
			fn := op.fn(m)
			keys := bound
			if op.name == "insert" {
				keys = free
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if op.name == "insert" && i > 0 && i%len(free) == 0 {
					// Every free key is bound now: start again from the
					// shard's own keys.
					b.StopTimer()
					tm, m = build(b)
					fn = op.fn(m)
					b.StartTimer()
				}
				key = pick(keys, i)
				if err := tm.Atomically(op.sem, fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
