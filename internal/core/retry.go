package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file implements composable blocking — the retry/orElse combinators
// of "Composable memory transactions" (Harris, Marlow, Peyton-Jones,
// Herlihy, PPoPP 2005), which the paper cites as the composition benchmark
// for transactions ([30]). They are an extension beyond the paper's
// evaluation, implemented here because they exercise the same machinery:
// a blocked transaction waits until one of its reads changes version.

// Blocking errors.
var (
	// ErrRetryNoReads is returned when a transaction calls Retry without
	// having read anything: there is no condition that could ever wake
	// it.
	ErrRetryNoReads = errors.New("retry with an empty read set would block forever")

	// ErrRetryNotClassic is returned when Retry is used outside a
	// Classic transaction. Elastic transactions forget (cut) their old
	// reads and snapshot transactions record none, so neither has a
	// well-defined wake condition.
	ErrRetryNotClassic = errors.New("retry requires a classic transaction")
)

// retrySignal unwinds an attempt that chose to block; Atomically waits
// for a read to change before re-running. Distinct from abortSignal: an
// abort is a conflict, a retry is a deliberate "the state I need is not
// here yet".
type retrySignal struct{}

// errBlockRetry is the internal marker for a blocking retry.
var errBlockRetry = errors.New("internal: blocking retry")

// Retry abandons the current attempt and blocks the transaction until at
// least one location it has read changes, then re-runs the closure — the
// condition-variable of the transactional world:
//
//	err := tm.Atomically(core.Classic, func(tx *core.Tx) error {
//		if queueHead.Load(tx) == nil {
//			tx.Retry() // sleep until someone enqueues
//		}
//		...
//	})
//
// Retry is only available in Classic transactions (see ErrRetryNotClassic).
func (tx *Tx) Retry() {
	tx.checkUsable()
	if tx.sem != Classic {
		panic(permanentError{err: fmt.Errorf("%s transaction: %w", tx.sem, ErrRetryNotClassic)})
	}
	panic(retrySignal{})
}

// waitSet captures the cells and versions a blocked transaction waits on.
type waitSet struct {
	entries []readEntry
}

// captureWaitSet snapshots the attempt's reads (including the elastic
// window, harmless for classic) for blocking, deduplicated per cell: a
// cell read twice — a typed cell in a loop, the same location reached
// through two OrElse branches — registers one waiter, so the blocked
// transaction's poll loop touches each awaited cell once per round
// instead of once per read. Of duplicate entries the one with the newest
// recorded version is kept: waking on the oldest would fire immediately
// for a change the attempt already observed.
func (tx *Tx) captureWaitSet(into *waitSet) {
	es := append(into.entries[:0], tx.reads...)
	es = append(es, tx.window...)
	slices.SortFunc(es, func(a, b readEntry) int {
		switch {
		case a.cell.id < b.cell.id:
			return -1
		case a.cell.id > b.cell.id:
			return 1
		case a.ver < b.ver:
			return -1
		case a.ver > b.ver:
			return 1
		}
		return 0
	})
	out := es[:0]
	for i, e := range es {
		if i+1 < len(es) && es[i+1].cell == e.cell {
			continue // a newer entry for the same cell follows
		}
		out = append(out, e)
	}
	into.entries = out
}

// changed reports whether any waited-on cell moved past its recorded
// version (or is currently locked, i.e. about to move).
func (ws *waitSet) changed() bool {
	for _, e := range ws.entries {
		m := e.cell.meta.Load()
		if isLocked(m) || version(m) != e.ver {
			return true
		}
	}
	return false
}

// await polls the wait set until it changes or the context is done. The
// poll interval backs off exponentially to blockPollMax.
func (ws *waitSet) await(ctx context.Context) error {
	const (
		blockPollMin = 2 * time.Microsecond
		blockPollMax = 500 * time.Microsecond
	)
	d := blockPollMin
	for !ws.changed() {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		time.Sleep(d)
		if d < blockPollMax {
			d *= 2
		}
	}
	return nil
}

// AtomicallyCtx is Atomically with cancellation: the context is consulted
// between attempts and while blocked in Retry. A canceled context returns
// ctx.Err() with the transaction rolled back.
func (tm *TM) AtomicallyCtx(ctx context.Context, sem Semantics, fn func(*Tx) error) error {
	return tm.atomically(ctx, sem, fn)
}

// Atomically without a context delegates to the shared loop.
// (Definition lives in tm.go; atomically is the common engine.)

// OrElse composes alternatives: it runs the branches in order inside one
// transaction; a branch that calls Retry is rolled back (its reads and
// writes are discarded) and the next branch runs. If every branch
// retries, the transaction blocks until any location read by any branch
// changes, then starts over from the first branch — the orElse combinator
// of composable memory transactions.
//
// OrElse requires Classic semantics, like Retry.
func (tm *TM) OrElse(fns ...func(*Tx) error) error {
	return tm.orElse(nil, fns...)
}

// OrElseCtx is OrElse with cancellation.
func (tm *TM) OrElseCtx(ctx context.Context, fns ...func(*Tx) error) error {
	return tm.orElse(ctx, fns...)
}

func (tm *TM) orElse(ctx context.Context, fns ...func(*Tx) error) error {
	if len(fns) == 0 {
		return errors.New("orElse: no branches")
	}
	branched := func(tx *Tx) error {
		var union waitSet
		for i, fn := range fns {
			retried, err := tx.runBranch(fn)
			if !retried {
				return err
			}
			// Branch blocked: remember what it read, roll its
			// effects back, try the next one.
			union.entries = append(union.entries, tx.reads...)
			tx.rollbackBranch()
			if i == len(fns)-1 {
				// All branches retried: surface the union so the
				// outer loop blocks on it.
				tx.reads = append(tx.reads[:0], union.entries...)
				panic(retrySignal{})
			}
		}
		return nil // unreachable
	}
	return tm.atomically(ctx, Classic, branched)
}

// runBranch executes one OrElse alternative, reporting whether it chose
// to retry. Abort signals and permanent errors pass through to the
// attempt's own handler.
func (tx *Tx) runBranch(fn func(*Tx) error) (retried bool, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(retrySignal); ok {
			retried = true
			return
		}
		panic(r)
	}()
	return false, fn(tx)
}

// rollbackBranch discards the current attempt's reads and writes (OrElse
// branches start from a clean slate, so a full reset is exact), dropping
// the branch's commit-time deltas and running any compensations it
// deferred. The recorder is told so history analysis drops the abandoned
// accesses.
func (tx *Tx) rollbackBranch() {
	tx.runAbortHooks()
	tx.reads = tx.reads[:0]
	tx.writes = truncate(tx.writes)
	tx.window = tx.window[:0]
	tx.hasWrites = false
	if tx.released != nil {
		clear(tx.released)
	}
	if tx.tm.recorder != nil {
		tx.record(Event{Kind: EventRollback, TxID: tx.id.Load(), Attempt: tx.attempt, Sem: tx.sem})
	}
}
