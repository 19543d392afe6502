// Command collectionbench regenerates the throughput figures of
// "Democratizing Transactional Programming" (Figures 5, 7 and 9): the
// Collection benchmark — contains/add/remove plus an atomic size — run
// against classic transactions, mixed-semantics transactions, and the
// copy-on-write concurrent collection, normalized over sequential code.
//
// Usage:
//
//	collectionbench [-fig 5|7|9|all] [-size 4096] [-dur 250ms]
//	                [-threads 1,2,4,8,16,32,64] [-update 10] [-sizepct 10]
//	                [-scheme gv1|gvpass|gvsharded] [-extra]
//	                [-json] [-out BENCH_collection.json] [-label run]
//	                [-soak=true]
//
// -extra appends the parse-only figure (no size operations), where the
// fine-grained and lock-free baselines join the comparison.
//
// The sweep is preceded by a short mixed-semantics storm (internal/storm)
// under the same clock scheme, so each performance run doubles as a
// correctness run: a sweep whose runtime violates opacity, the elastic cut
// rule or snapshot consistency fails before a single number is printed.
// -soak=false skips it. With -json the run's per-point throughput, abort
// rates and configuration are appended to the -out trajectory file; the
// recorded host topology includes GOMAXPROCS, so a many-core sweep is one
// `GOMAXPROCS=N collectionbench …` invocation per value.
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
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/core"
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
		return fmt.Errorf("unknown figure %q (want 5, 7, 9 or all)", *fig)
	}
	if *extra {
		parseOnly := wl
		parseOnly.SizePct = 0
		figures = append(figures, bench.Figure{
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
		})
	}
	if *soak {
		if err := runSoak(scheme); err != nil {
			return err
		}
	}
	var rec *bench.JSONRun
	if *jsonOut {
		rec = bench.NewJSONRun("collectionbench", *runLabel, scheme.String(), wl)
	}
	for i, f := range figures {
		if i > 0 {
			fmt.Println()
		}
		series, seq, err := bench.RunFigure(os.Stdout, f)
		if err != nil {
			return err
		}
		if rec != nil {
			rec.AddFigure(f.Name, series, seq)
		}
	}
	if rec != nil {
		if err := bench.AppendJSONRun(*outPath, rec); err != nil {
			return err
		}
		fmt.Printf("\nappended run %q to %s\n", *runLabel, *outPath)
	}
	return nil
}

// runSoak runs the pre-sweep correctness storm (storm.Soak) under the
// clock scheme about to be measured.
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
