// Package storm is a deterministic, seed-driven concurrency harness with a
// generalized history verifier: it runs N workers over a pluggable workload
// (raw cells, bank transfers, and the txstruct collections) under a
// configurable mix of classic / elastic / snapshot semantics, records every
// commit through the runtime's recorder hook, and then checks what the
// paper claims — that every transaction kept its own guarantee:
//
//   - opacity / strict commit-point consistency for classic transactions,
//   - the cut rule for elastic transactions,
//   - snapshot consistency (one multiversion cut, no backward reads) for
//     snapshot transactions,
//   - and structure-specific linearizability of the abstract operations
//     (add/remove/contains/size, put/delete/get, enq/deq) replayed against
//     a sequential model in the TM's own serialization order.
//
// Two modes: Run is the seeded-random storm for big cases (failures replay
// from the seed, which fixes every worker's operation sequence); ExploreTiny
// exhaustively enumerates all interleavings of up to three tiny transactions
// and drives the live runtime through each, deterministically.
package storm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/history"
)

// Mix weighs the transaction semantics of a storm. Weights are relative;
// operations that cannot tolerate a semantics (e.g. writes under Snapshot,
// multi-location invariant reads under Elastic) renormalize over what they
// can. A zero Mix defaults to 60/25/15.
type Mix struct {
	Classic  int
	Elastic  int
	Snapshot int
}

func (m Mix) withDefaults() Mix {
	if m.Classic == 0 && m.Elastic == 0 && m.Snapshot == 0 {
		return Mix{Classic: 60, Elastic: 25, Snapshot: 15}
	}
	return m
}

func (m Mix) weight(sem core.Semantics) int {
	switch sem {
	case core.Classic:
		return m.Classic
	case core.Elastic:
		return m.Elastic
	case core.Snapshot:
		return m.Snapshot
	}
	return 0
}

// pick draws one of the allowed semantics with the mix's weights,
// renormalized over the allowed set. When every allowed weight is zero it
// falls back to the first allowed semantics (by convention Classic).
func (m Mix) pick(rng *rand.Rand, allowed []core.Semantics) core.Semantics {
	total := 0
	for _, s := range allowed {
		total += m.weight(s)
	}
	if total == 0 {
		return allowed[0]
	}
	roll := rng.Intn(total)
	for _, s := range allowed {
		w := m.weight(s)
		if roll < w {
			return s
		}
		roll -= w
	}
	return allowed[len(allowed)-1]
}

// Config parameterizes one storm run. The zero value of every field has a
// sensible default; Workload is required.
type Config struct {
	Workload string
	Workers  int              // concurrent workers (default 4)
	Ops      int              // operations per worker (default 200)
	Duration time.Duration    // when set, run until the deadline instead of Ops
	Keys     int              // key / cell range (default 32)
	Seed     uint64           // fixes every worker's operation sequence (default 1)
	Mix      Mix              // semantics weights (default 60/25/15)
	Window   int              // elastic window, forwarded to the TM (default 2)
	Chaos    int              // % of ops preceded by a seeded scheduler perturbation (0 disables; cmd/stormcheck defaults to 10)
	Clock    core.ClockScheme // commit-versioning scheme under test (default ClockGV1)

	// WrapRecorder, when set, wraps the history collector before it is
	// attached to the TM — the fault-injection hook used to prove the
	// checker catches corrupted histories.
	WrapRecorder func(core.Recorder) core.Recorder

	// KeepOps retains every worker's op-record sequence in the report
	// (Report.SetupOps / Report.WorkerOps) — the input the shrinker
	// bisects. Off by default: a storm's records are normally only needed
	// transiently for the model check.
	KeepOps bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Ops <= 0 {
		c.Ops = 200
	}
	if c.Keys <= 0 {
		c.Keys = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Window <= 0 {
		c.Window = 2
	}
	if c.Chaos < 0 {
		c.Chaos = 0
	}
	c.Mix = c.Mix.withDefaults()
	return c
}

// Report is the outcome of one storm run.
type Report struct {
	Workload string
	Seed     uint64
	Ops      int // operations executed (committed)
	Stats    core.Stats

	// InputDigest fingerprints the seeded operation sequences (kinds,
	// keys, values, semantics — not results): identical configs produce
	// identical digests, which is what makes failures replayable.
	InputDigest uint64

	AnalyzeErr   error            // the event stream could not be digested
	Verdict      *history.Verdict // per-semantics guarantee verdict
	ModelErr     error            // abstract-operation linearizability
	WorkerErr    error            // a worker's transaction failed outright
	SemanticsTxs map[core.Semantics]int

	// Notes carries workload-specific observations that are not part of
	// the pass/fail verdict, e.g. the lrucache workload's hit rate.
	Notes []string

	// SetupOps / WorkerOps are the per-worker op-record sequences, retained
	// only when Config.KeepOps was set: the shrinker's input.
	SetupOps  []OpRecord
	WorkerOps [][]OpRecord
}

// Err returns nil when the run was fully clean and the first failure
// otherwise.
func (r *Report) Err() error {
	switch {
	case r.WorkerErr != nil:
		return fmt.Errorf("worker: %w", r.WorkerErr)
	case r.AnalyzeErr != nil:
		return fmt.Errorf("analyze: %w", r.AnalyzeErr)
	case r.Verdict != nil && !r.Verdict.OK():
		return r.Verdict.Err()
	case r.ModelErr != nil:
		return fmt.Errorf("model: %w", r.ModelErr)
	}
	return nil
}

// String renders a one-line summary for CLI output.
func (r *Report) String() string {
	status := "ok"
	if err := r.Err(); err != nil {
		status = "VIOLATION: " + err.Error()
	}
	for _, n := range r.Notes {
		status += " · " + n
	}
	return fmt.Sprintf("%-10s seed=%d ops=%d commits=%d aborts=%d (%.0f%% abort) digest=%016x [%s] %s",
		r.Workload, r.Seed, r.Ops, r.Stats.Commits, r.Stats.TotalAborts(),
		100*r.Stats.AbortRate(), r.InputDigest, r.Verdict, status)
}

// splitmix64 derives independent per-worker seeds from the base seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Run executes one storm and checks everything it recorded. The returned
// error is for configuration problems only; correctness violations are in
// the Report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	// Events are buffered in fixed per-stripe rings and bulk-flushed into
	// the sharded collector: the recorder hot path allocates nothing, so
	// the soak runs at bench speed instead of being throttled (and
	// rescheduled) by per-event lock traffic.
	col := history.NewRingCollector(history.NewShardedCollector())
	var rec core.Recorder = col
	if cfg.WrapRecorder != nil {
		rec = cfg.WrapRecorder(col)
	}
	tm := core.New(core.WithRecorder(rec), core.WithElasticWindow(cfg.Window),
		core.WithClockScheme(cfg.Clock))
	w, err := newWorkload(cfg.Workload, tm, cfg.Keys, cfg.Window)
	if err != nil {
		return nil, err
	}

	rep := &Report{Workload: cfg.Workload, Seed: cfg.Seed}

	setupRecs, err := w.prepopulate(rand.New(rand.NewSource(int64(splitmix64(cfg.Seed)))))
	if err != nil {
		rep.WorkerErr = err
		// finishReport (not a bare return): it owns the workload cleanup
		// hook, which must run on every path.
		finishReport(rep, cfg, col, tm, w, nil)
		return rep, nil
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		allRecs   = setupRecs
		workerErr error
		digest    = uint64(0)
		workerOps = make([][]OpRecord, cfg.Workers)
	)
	deadline := time.Now().Add(cfg.Duration)
	for wi := 0; wi < cfg.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(splitmix64(cfg.Seed ^ uint64(wi+1)*0x9e3779b97f4a7c15))))
			h := fnv.New64a()
			fmt.Fprintf(h, "worker%d", wi)
			var recs []OpRecord
			for i := 0; cfg.Duration > 0 || i < cfg.Ops; i++ {
				if cfg.Duration > 0 && !time.Now().Before(deadline) {
					break
				}
				if rng.Intn(100) < cfg.Chaos {
					// Seeded scheduler perturbation (PCT-style priority
					// noise): yield, or briefly park, to push the run
					// into rarer interleavings.
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
					} else {
						runtime.Gosched()
					}
				}
				rec, err := w.step(rng, cfg.Mix)
				if err != nil {
					mu.Lock()
					if workerErr == nil {
						workerErr = fmt.Errorf("worker %d op %d: %w", wi, i, err)
					}
					mu.Unlock()
					return
				}
				for _, op := range rec.Ops {
					amount := 0
					if op.Kind == OpTransfer {
						amount = op.Int // the transfer amount is an input, not a result
					}
					fmt.Fprintf(h, "|%d:%d:%d:%d:%d", op.Kind, op.Key, op.Val, amount, rec.Sem)
				}
				recs = append(recs, rec)
			}
			mu.Lock()
			allRecs = append(allRecs, recs...)
			digest ^= h.Sum64()
			mu.Unlock()
			workerOps[wi] = recs
		}(wi)
	}
	wg.Wait()

	rep.WorkerErr = workerErr
	rep.InputDigest = digest
	if cfg.KeepOps {
		rep.SetupOps = setupRecs
		rep.WorkerOps = workerOps
	}
	finishReport(rep, cfg, col, tm, w, allRecs)
	return rep, nil
}

// finishReport fills in the verification half of a report — stats, history
// analysis, per-semantics verdict and the workload's model check — shared
// by Run and the shrinker's replay runs. A workload holding external
// resources (the persist workload's scratch directory and WAL) is
// released afterwards on EVERY path, including the early worker-error and
// analysis-error returns its check never sees.
func finishReport(rep *Report, cfg Config, col *history.RingCollector, tm *core.TM, w workload, allRecs []OpRecord) {
	if c, ok := w.(interface{ cleanup() }); ok {
		defer c.cleanup()
	}
	rep.Ops = len(allRecs)
	rep.Stats = tm.Stats()
	// A workload running outside the harness TM (shardbank's partition
	// owns per-shard TMs) reports its own folded counters.
	if s, ok := w.(interface{ stats() core.Stats }); ok {
		rep.Stats = s.stats()
	}
	rep.SemanticsTxs = make(map[core.Semantics]int)
	for _, r := range allRecs {
		rep.SemanticsTxs[r.Sem]++
	}
	if rep.WorkerErr != nil {
		return
	}
	log, aerr := history.Analyze(col.Events())
	if aerr != nil {
		rep.AnalyzeErr = aerr
		return
	}
	rep.Verdict = log.CheckVerdict(cfg.Window)
	rep.ModelErr = w.check(log, allRecs)
	if n, ok := w.(interface{ notes() []string }); ok {
		rep.Notes = n.notes()
	}
}
