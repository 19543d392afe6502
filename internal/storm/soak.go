package storm

import (
	"fmt"

	"repro/internal/core"
)

// Soak runs collectionbench's pre-sweep correctness storm: quick seeded
// mixed-semantics runs over the linked list (the structure family the
// Collection benchmark measures, now on typed node cells) AND the typed
// raw-cell workload (value-level checked, including updater reads), with
// full history verification, under the clock scheme about to be
// benchmarked. It returns an error when a storm cannot run or when any
// transaction violated its guarantee — the ROADMAP's "every perf run
// doubles as a correctness run".
//
// All reports are returned, in workload order, so callers can account for
// the full coverage rather than just the last storm; on a violation the
// offending report is returned with the error.
func Soak(scheme core.ClockScheme) ([]*Report, error) {
	var reps []*Report
	for _, workload := range []string{"linkedlist", "typedcells"} {
		rep, err := Run(Config{
			Workload: workload,
			Workers:  4,
			Ops:      150,
			Keys:     32,
			Seed:     1,
			Chaos:    10,
			Clock:    scheme,
		})
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		if rerr := rep.Err(); rerr != nil {
			return reps, fmt.Errorf("correctness soak failed, refusing to benchmark a broken runtime: %w", rerr)
		}
	}
	return reps, nil
}
