package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/txstruct"
)

// Factories for every system under test. Each measurement run builds a
// fresh set (and, for transactional sets, a fresh TM) so runs do not share
// state.

// SequentialFactory is the speedup denominator of every figure.
func SequentialFactory() Factory {
	return Factory{
		Name:               "sequential",
		New:                func() intset.Set { return baseline.NewSeqList() },
		SupportsAtomicSize: true,
		Sequential:         true,
	}
}

// stmListFactory builds an instrumented transactional-list factory.
func stmListFactory(name string, cfg txstruct.ListConfig, opts ...core.Option) Factory {
	return Factory{
		Name: name,
		NewInstrumented: func() (intset.Set, StatsFn) {
			tm := core.New(opts...)
			return txstruct.NewList(tm, cfg), tm.Stats
		},
		SupportsAtomicSize: true,
	}
}

// ClassicSTMFactory is "classic transactions" (TL2-style) with every
// operation — including size — opaque: the paper's Figure 5 subject.
func ClassicSTMFactory(opts ...core.Option) Factory {
	return stmListFactory("classic-stm", txstruct.ListConfig{
		Parse: core.Classic, Size: core.Classic,
	}, opts...)
}

// ElasticMixedFactory labels the parse operations elastic and keeps size
// classic: the paper's Figure 7 subject ("elastic + classic").
func ElasticMixedFactory(opts ...core.Option) Factory {
	return stmListFactory("elastic+classic", txstruct.ListConfig{
		Parse: core.Elastic, Size: core.Classic,
	}, opts...)
}

// SnapshotMixedFactory labels parses elastic and size snapshot: the
// paper's Figure 9 subject (the full mixed model).
func SnapshotMixedFactory(opts ...core.Option) Factory {
	return stmListFactory("elastic+snapshot", txstruct.ListConfig{
		Parse: core.Elastic, Size: core.Snapshot,
	}, opts...)
}

// STMListFactoryWith exposes stmListFactory for the ablations in the root
// bench_test.go (version-depth, window-size and read-extension sweeps).
func STMListFactoryWith(name string, cfg txstruct.ListConfig, opts ...core.Option) Factory {
	return stmListFactory(name, cfg, opts...)
}

// COWFactory is the "existing concurrent collection": the copy-on-write
// workaround that java.util.concurrent users need for an atomic size.
func COWFactory() Factory {
	return Factory{
		Name:               "collection(cow)",
		New:                func() intset.Set { return baseline.NewCOWSet() },
		SupportsAtomicSize: true,
	}
}

// HoHFactory is Algorithm 3's hand-over-hand list (parse workloads only).
func HoHFactory() Factory {
	return Factory{
		Name: "hand-over-hand",
		New:  func() intset.Set { return baseline.NewHoHList() },
	}
}

// LazyFactory is the lazy list [29] (parse workloads only).
func LazyFactory() Factory {
	return Factory{
		Name: "lazy-list",
		New:  func() intset.Set { return baseline.NewLazyList() },
	}
}

// HarrisFactory is the lock-free list [36, 28] (parse workloads only).
func HarrisFactory() Factory {
	return Factory{
		Name: "lock-free",
		New:  func() intset.Set { return baseline.NewHarrisList() },
	}
}

// HashSetFactory is the transactional hash set with the given semantics,
// an additional structure beyond the paper's list benchmark.
func HashSetFactory(name string, buckets int, cfg txstruct.ListConfig, opts ...core.Option) Factory {
	return Factory{
		Name: name,
		NewInstrumented: func() (intset.Set, StatsFn) {
			tm := core.New(opts...)
			return txstruct.NewHashSet(tm, buckets, cfg), tm.Stats
		},
		SupportsAtomicSize: true,
	}
}

// Figure describes one of the paper's throughput figures.
type Figure struct {
	Name     string
	Caption  string
	Impls    []Factory
	Workload Workload
	Threads  []int
}

// DefaultThreads is the paper's sweep (1..64 hardware threads on the
// Niagara 2); beyond the host's core count the extra goroutines measure
// oversubscription, which we keep for shape fidelity.
func DefaultThreads() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

// Figure5 compares classic transactions against the concurrent collection
// (paper: collection 2.2x faster than classic TL2 at 64 threads).
func Figure5(w Workload, threads []int, opts ...core.Option) Figure {
	return Figure{
		Name:     "figure5",
		Caption:  "Throughput over sequential: classic transactions vs existing collection",
		Impls:    []Factory{ClassicSTMFactory(opts...), COWFactory()},
		Workload: w,
		Threads:  threads,
	}
}

// Figure7 adds the elastic+classic mix (paper: 3.5x over classic, 1.6x
// over the collection at best, with a 32->64 thread slowdown).
func Figure7(w Workload, threads []int, opts ...core.Option) Figure {
	return Figure{
		Name:     "figure7",
		Caption:  "Throughput over sequential: elastic+classic vs classic vs collection",
		Impls:    []Factory{ElasticMixedFactory(opts...), ClassicSTMFactory(opts...), COWFactory()},
		Workload: w,
		Threads:  threads,
	}
}

// Figure9 adds the snapshot size (paper: 4.3x over classic, 1.9x over the
// collection at 64 threads, scaling to the maximum hardware threads).
func Figure9(w Workload, threads []int, opts ...core.Option) Figure {
	return Figure{
		Name:     "figure9",
		Caption:  "Throughput over sequential: mixed (elastic+snapshot) vs classic vs collection",
		Impls:    []Factory{SnapshotMixedFactory(opts...), ClassicSTMFactory(opts...), COWFactory()},
		Workload: w,
		Threads:  threads,
	}
}

// RunFigure sweeps the figure's implementations and renders the series;
// the sequential denominator is returned too, for the JSON trajectory.
func RunFigure(w io.Writer, fig Figure) ([]Series, Result, error) {
	series, seqRes, err := Sweep(SequentialFactory(), fig.Impls, fig.Threads, fig.Workload)
	if err != nil {
		return nil, Result{}, err
	}
	RenderFigure(w, fig, series, seqRes)
	return series, seqRes, nil
}

// RenderFigure prints the speedup table of one figure plus an ASCII chart.
func RenderFigure(w io.Writer, fig Figure, series []Series, seqRes Result) {
	fmt.Fprintf(w, "%s — %s\n", fig.Name, fig.Caption)
	fmt.Fprintf(w, "workload: %d initial elements, %d%% updates, %d%% sizes, %s per point; sequential baseline %.0f ops/s\n",
		fig.Workload.InitialSize, fig.Workload.UpdatePct, fig.Workload.SizePct,
		fig.Workload.Duration, seqRes.Throughput)
	fmt.Fprintln(w, strings.Repeat("-", 30+12*len(series)))
	fmt.Fprintf(w, "%-10s", "threads")
	for _, s := range series {
		fmt.Fprintf(w, " %16s", s.Impl)
	}
	fmt.Fprintln(w)
	for i, th := range fig.Threads {
		fmt.Fprintf(w, "%-10d", th)
		for _, s := range series {
			if i < len(s.Speedups) {
				fmt.Fprintf(w, " %15.2fx", s.Speedups[i])
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, strings.Repeat("-", 30+12*len(series)))
	// Abort-rate diagnostics for transactional systems: the mechanism
	// behind the curves (classic sizes abort under updates; snapshot
	// sizes commit — section 4.3 of the paper).
	any := false
	for _, s := range series {
		for _, r := range s.Raw {
			if r.TxAttempts > 0 {
				any = true
			}
		}
	}
	if any {
		fmt.Fprintf(w, "%-10s", "aborts/attempt")
		fmt.Fprintln(w)
		for _, s := range series {
			if len(s.Raw) == 0 || s.Raw[0].TxAttempts == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-16s", s.Impl)
			for _, r := range s.Raw {
				fmt.Fprintf(w, " %6.1f%%", 100*r.AbortRate())
			}
			fmt.Fprintln(w)
		}
	}
	RenderChart(w, fig.Threads, series)
}

// RenderChart draws a coarse ASCII speedup chart (threads on x, speedup
// on y), mirroring the figures' visual shape.
func RenderChart(w io.Writer, threads []int, series []Series) {
	const rows = 12
	maxSp := 0.0
	for _, s := range series {
		for _, v := range s.Speedups {
			if v > maxSp {
				maxSp = v
			}
		}
	}
	if maxSp == 0 {
		return
	}
	marks := []byte{'*', 'o', '+', 'x', '#', '@'}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", 6*len(threads)))
	}
	for si, s := range series {
		for i, v := range s.Speedups {
			r := rows - 1 - int(v/maxSp*float64(rows-1)+0.5)
			if r < 0 {
				r = 0
			}
			if r >= rows {
				r = rows - 1
			}
			grid[r][i*6+3] = marks[si%len(marks)]
		}
	}
	for r := range grid {
		y := maxSp * float64(rows-1-r) / float64(rows-1)
		fmt.Fprintf(w, "%6.2fx |%s\n", y, string(grid[r]))
	}
	fmt.Fprintf(w, "        +%s\n", strings.Repeat("-", 6*len(threads)))
	fmt.Fprintf(w, "         ")
	for _, th := range threads {
		fmt.Fprintf(w, "%5d ", th)
	}
	fmt.Fprintln(w, " threads")
	for si, s := range series {
		fmt.Fprintf(w, "         %c = %s\n", marks[si%len(marks)], s.Impl)
	}
}
