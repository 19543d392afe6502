package storm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/history"
)

// TinyProgram is one transaction of an exhaustive exploration: a straight
// line of reads and writes over named locations, run under a semantics
// label. Snapshot programs must be read-only.
type TinyProgram struct {
	Sem      core.Semantics
	Accesses []history.Access
}

// ExploreReport summarizes one exhaustive exploration.
type ExploreReport struct {
	Case      string
	Schedules int    // interleavings enumerated and driven
	Commits   uint64 // committed transactions across all schedules
	Aborts    uint64 // aborted attempts across all schedules — proof the
	// gate actually manufactured the conflicting interleavings
	Failures []string // one entry per failing schedule (capped)
}

const maxExploreFailures = 8

// Err returns nil when every schedule was clean.
func (r *ExploreReport) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	return fmt.Errorf("explore %s: %d/%d schedules failed, first: %s",
		r.Case, len(r.Failures), r.Schedules, r.Failures[0])
}

// exploreLimit bounds the exhaustive mode: 3 transactions of a handful of
// accesses is the regime where full enumeration stays cheap (Figure 4's
// 3+1+1 accesses already give 20 interleavings).
const (
	maxTinyPrograms = 3
	maxTinyAccesses = 9
)

// ExploreTiny enumerates every interleaving of the programs (reusing the
// sched/history interleaving machinery) and drives the live runtime through
// each one deterministically: the first attempt of every transaction is
// gated access-by-access in schedule order; aborted attempts retry
// ungated. After each schedule the recorded history must pass the
// cross-semantics verdict and the final memory state must equal the
// outcome of some serial order of the programs.
//
// opts configure the TM under exploration (clock scheme, window size …) on
// top of the explorer's own recorder and spin budget, so the exhaustive
// suite can be replayed against every runtime configuration.
func ExploreTiny(name string, programs []TinyProgram, opts ...core.Option) (*ExploreReport, error) {
	if len(programs) == 0 || len(programs) > maxTinyPrograms {
		return nil, fmt.Errorf("explore: need 1..%d programs, have %d", maxTinyPrograms, len(programs))
	}
	total := 0
	raw := make([][]history.Access, len(programs))
	for i, p := range programs {
		total += len(p.Accesses)
		raw[i] = p.Accesses
		if p.Sem == core.Snapshot {
			for _, a := range p.Accesses {
				if a.Kind == history.OpWrite {
					return nil, fmt.Errorf("explore: program %d is Snapshot but writes %s", i, a.Loc)
				}
			}
		}
	}
	if total > maxTinyAccesses {
		return nil, fmt.Errorf("explore: %d accesses exceed the exhaustive limit %d", total, maxTinyAccesses)
	}
	schedules := history.Interleavings(raw...)
	rep := &ExploreReport{Case: name, Schedules: len(schedules)}
	finals := serialOutcomes(programs)
	for si, sched := range schedules {
		stats, err := runSchedule(programs, sched, finals, opts)
		rep.Commits += stats.Commits
		rep.Aborts += stats.TotalAborts()
		if err != nil {
			if len(rep.Failures) < maxExploreFailures {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("schedule %d [%s]: %v", si, sched, err))
			}
		}
	}
	return rep, nil
}

// writeVal is the distinguishable value program pi writes with its ai-th
// access, letting the final state identify which serial order explains it.
func writeVal(pi, ai int) int { return 100*(pi+1) + ai + 1 }

// serialOutcomes returns the final location states of every serial order of
// the programs (permutations of blind writes; reads don't move state).
func serialOutcomes(programs []TinyProgram) []map[string]int {
	n := len(programs)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var out []map[string]int
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			state := make(map[string]int)
			for _, pi := range perm {
				for ai, a := range programs[pi].Accesses {
					if a.Kind == history.OpWrite {
						state[a.Loc] = writeVal(pi, ai)
					}
				}
			}
			out = append(out, state)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			walk(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	walk(0)
	return out
}

// gate sequences the first attempts of the schedule's transactions: each
// access waits for its global turn. A transaction that aborts its first
// attempt (or times out) goes off-schedule: its remaining turns are skipped
// and its retries run ungated.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	sched   history.Schedule
	next    int
	skipped []bool
	start   time.Time
}

func newGate(sched history.Schedule, nprogs int) *gate {
	g := &gate{sched: sched, skipped: make([]bool, nprogs), start: time.Now()}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// gateTimeout is the fail-open bound: if the schedule cannot advance (which
// would be a harness bug, not a runtime bug), exploration degrades to
// ungated execution instead of deadlocking the test suite.
const gateTimeout = 5 * time.Second

// await blocks until it is prog's turn. It returns false when prog is
// off-schedule and should run ungated.
func (g *gate) await(prog int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.skipped[prog] {
			return false
		}
		g.advancePastSkipped()
		if g.next < len(g.sched) && g.sched[g.next].Tx == prog {
			return true
		}
		if g.next >= len(g.sched) {
			return false
		}
		if time.Since(g.start) > gateTimeout {
			g.skipped[prog] = true
			g.cond.Broadcast()
			return false
		}
		g.timedWait()
	}
}

// done marks prog's current access complete and hands the turn on.
func (g *gate) done(prog int) {
	g.mu.Lock()
	if g.next < len(g.sched) && g.sched[g.next].Tx == prog {
		g.next++
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// skip takes prog off-schedule (first attempt aborted, or the transaction
// finished); its remaining turns no longer block others.
func (g *gate) skip(prog int) {
	g.mu.Lock()
	if !g.skipped[prog] {
		g.skipped[prog] = true
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// advancePastSkipped consumes turns owned by off-schedule transactions.
// Callers hold g.mu.
func (g *gate) advancePastSkipped() {
	for g.next < len(g.sched) && g.skipped[g.sched[g.next].Tx] {
		g.next++
	}
}

// timedWait waits on the condition with a wakeup so the timeout check above
// runs even if no broadcast arrives. Callers hold g.mu.
func (g *gate) timedWait() {
	done := make(chan struct{})
	t := time.AfterFunc(10*time.Millisecond, func() {
		g.cond.Broadcast()
		close(done)
	})
	g.cond.Wait()
	t.Stop()
	select {
	case <-done:
	default:
	}
}

// runSchedule drives the live runtime through one interleaving and checks
// the recorded history plus the final memory state.
func runSchedule(programs []TinyProgram, sched history.Schedule, finals []map[string]int, opts []core.Option) (core.Stats, error) {
	col := history.NewCollector()
	tmOpts := append([]core.Option{core.WithRecorder(col), core.WithSpinBudget(4)}, opts...)
	tm := core.New(tmOpts...)
	cells := make(map[string]*core.TypedCell[int])
	for _, a := range sched {
		if cells[a.Loc] == nil {
			cells[a.Loc] = core.NewTypedCell(tm, 0)
		}
	}
	g := newGate(sched, len(programs))
	var wg sync.WaitGroup
	errs := make([]error, len(programs))
	for pi := range programs {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			defer g.skip(pi)
			p := programs[pi]
			errs[pi] = tm.Atomically(p.Sem, func(tx *core.Tx) error {
				gated := tx.Attempt() == 1
				if !gated {
					g.skip(pi)
				}
				for ai, a := range p.Accesses {
					if gated {
						gated = g.await(pi)
					}
					switch a.Kind {
					case history.OpRead:
						_ = cells[a.Loc].Load(tx)
					case history.OpWrite:
						cells[a.Loc].Store(tx, writeVal(pi, ai))
					}
					if gated {
						g.done(pi)
					}
				}
				return nil
			})
		}(pi)
	}
	wg.Wait()
	stats := tm.Stats()
	for pi, err := range errs {
		if err != nil {
			return stats, fmt.Errorf("program %d: %w", pi, err)
		}
	}

	log, err := history.Analyze(col.Events())
	if err != nil {
		return stats, fmt.Errorf("analyze: %w", err)
	}
	if v := log.CheckVerdict(2); !v.OK() {
		return stats, v.Err()
	}

	final := make(map[string]int)
	if err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
		for loc, c := range cells {
			if v := c.Load(tx); v != 0 {
				final[loc] = v
			}
		}
		return nil
	}); err != nil {
		return stats, err
	}
	for _, want := range finals {
		if mapsEqual(final, want) {
			return stats, nil
		}
	}
	return stats, fmt.Errorf("final state %v matches no serial order of the programs", final)
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
