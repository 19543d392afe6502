// Command benchmark is the composite-store benchmark: one store built
// from shard, persistmap, cache and (optionally) a durable WAL, driven
// closed-loop under four workloads, measured end to end with tracing off
// and layer by layer with spans around every call into a layer. See
// README.md for the metric glossary and the calibration record.
//
//	go run -C benchmark . -workload all -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const warmUp = 3 * time.Second

// Trace modes of one invocation.
const (
	traceBoth = -1 // measured window, then traced window: every metric
	traceOff  = 0  // end-to-end metrics only
	traceOn   = 1  // per-layer metrics only
)

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of every client's op stream")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for trace-<workload>.json and goroutine dumps")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < traceBoth || *trace > traceOn {
		flag.Usage()
		os.Exit(2)
	}
	var wls []*workload
	if *name == "all" {
		for i := range workloads {
			wls = append(wls, &workloads[i])
		}
	} else if wl := findWorkload(*name); wl != nil {
		wls = append(wls, wl)
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}

	runtime.GOMAXPROCS(numClients())
	printHost(os.Stdout)
	ok := true
	for i, wl := range wls {
		pl := planFor(*seed, time.Duration(*seconds)*time.Second, *trace, *out)
		ok = invoke(os.Stdout, wl, pl, *trace, i == 0) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// planFor splits an invocation's -seconds between the windows. A run that
// reports only per-layer metrics still measures an untraced half: the
// lat.* metrics and the tracing overhead need one.
func planFor(seed int64, window time.Duration, trace int, out string) plan {
	pl := plan{seed: seed, warm: warmUp, out: out, setups: 1}
	switch trace {
	case traceOff:
		pl.measure, pl.setups = window, 5
	case traceOn:
		pl.measure, pl.traced = window/2, window/2
	default:
		pl.measure, pl.traced, pl.setups = window, window/2, 5
	}
	return pl
}

// invoke runs one workload and prints its metrics, then the result line
// in the shape BENCHMARK.json's driver reads. It reports whether every
// check passed.
func invoke(w io.Writer, wl *workload, pl plan, trace int, withLadder bool) bool {
	r := runWorkload(wl, pl)
	var ladder []rungResult
	if trace != traceOff && withLadder {
		var err error
		if ladder, err = runLadder(); err != nil {
			r.fail("ladder: %v", err)
		}
	}

	res := result{Metrics: map[string]jsonMetric{}}
	if len(r.clients) > 0 {
		fmt.Fprintf(w, "# %s: seed=%d clients=%d closed-loop warm=%s measured=%s traced=%s\n",
			wl.name, pl.seed, len(r.clients), pl.warm, pl.measure, pl.traced)
		u := r.totals(0, pl.measure.Seconds())
		u.printSlices(w, wl.name)
		res.Attempted, res.Failed = u.ops+uint64(r.hung), u.failed+uint64(r.hung)
		if trace != traceOn {
			vs := r.endToEnd(u)
			printMetrics(w, wl.name, endToEndDefs, vs)
			res.add(endToEndDefs, vs)
		}
		if trace != traceOff {
			t := r.totals(1, pl.traced.Seconds())
			res.Attempted, res.Failed = res.Attempted+t.ops, res.Failed+t.failed
			vs := r.perLayer(u, t, ladder)
			printMetrics(w, wl.name, perLayerDefs, vs)
			r.printAccounting(w)
			printLadder(w, ladder)
			res.add(perLayerDefs, vs)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s: FAILED CHECK: %s\n", wl.name, n)
	}
	res.Correct = len(r.notes) == 0 && res.Failed == 0 && res.Attempted > 0
	line, _ := json.Marshal(res)
	if err := os.MkdirAll(pl.out, 0o755); err == nil {
		os.WriteFile(filepath.Join(pl.out, "result-"+wl.name+".json"), append(line, '\n'), 0o644)
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}

// result is the last line of an invocation's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add copies every metric of defs into the result; one that does not
// exist on this workload is written as 0 (the text lines say "absent").
func (res *result) add(defs []metricDef, vs values) {
	for _, d := range defs {
		res.Metrics[d.name] = jsonMetric{Value: vs[d.name].v, Unit: d.unit}
	}
}

func printHost(w io.Writer) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d %s %s/%s GOGC=default cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model)
}
