package core

import "sync/atomic"

// abortReasonCount is sized to index AbortReason values directly.
const abortReasonCount = int(AbortExplicit) + 1

// padUint64 is an atomic counter alone on its cache line, for words that
// many cores write (ID counters, the rare global stats).
type padUint64 struct {
	atomic.Uint64
	_ [56]byte
}

// statStripes is how many stat stripes a TM keeps. A transaction books
// into the stripe its handle's ID block selects, so concurrent handles
// almost always write different stripes. It is a constant, not derived
// from the host: summing 16 stripes is cheap, and Stats is not hot.
const statStripes = 16

// statStripe is one stripe of the per-transaction counters. Every
// attempt ends with exactly one add to an outcome word (readOnlyCommits,
// updateCommits, parked or aborts[r]), so Commits and Attempts are
// derived, not stored. The per-read tallies (cuts, snapshotOld,
// extensions) are counted in the handle and added here once per attempt
// end, only when non-zero.
type statStripe struct {
	readOnlyCommits atomic.Uint64
	updateCommits   atomic.Uint64
	// parked counts attempts that ended with neither a commit nor an
	// abort: a blocking Retry's park, or a panic out of the closure.
	parked      atomic.Uint64
	aborts      [abortReasonCount]atomic.Uint64
	cuts        atomic.Uint64
	snapshotOld atomic.Uint64
	extensions  atomic.Uint64
	// The 15 words above take 120 bytes; the pad rounds the stripe up to
	// 128, two cache lines, so neighbouring stripes never share a line
	// or an adjacent-line prefetch pair.
	_ [8]byte
}

// abort books one attempt aborted for reason r; an unset reason is booked
// as AbortExplicit, so every attempt lands in exactly one outcome word.
func (s *statStripe) abort(r AbortReason) {
	if r <= 0 || int(r) >= abortReasonCount {
		r = AbortExplicit
	}
	s.aborts[int(r)].Add(1)
}

// counters aggregates runtime statistics. One instance lives in each TM;
// Stats() sums it.
type counters struct {
	stripes [statStripes]statStripe
	// Rare events stay global.
	kills      padUint64
	pins       padUint64
	privatizes padUint64
}

// Stats is a point-in-time snapshot of a TM's counters. Each attempt is
// booked when it ends, and the counters are summed from per-stripe words
// without a lock, so Stats is exact at quiescence: when no transaction is
// running, the fields add up exactly (Attempts equals Commits plus
// TotalAborts plus the attempts that ended in a blocking Retry or a panic).
// While transactions run, a snapshot may miss the attempts still in flight
// and tear between stripes.
type Stats struct {
	// Commits is the number of successfully committed transactions.
	Commits uint64
	// ReadOnlyCommits counts the subset of Commits with an empty write set.
	ReadOnlyCommits uint64
	// Attempts counts every finished attempt, including retries.
	Attempts uint64
	// Aborts maps each abort reason to its occurrence count.
	Aborts map[AbortReason]uint64
	// Cuts counts elastic window evictions: each is one cut boundary.
	Cuts uint64
	// SnapshotOldReads counts snapshot reads served from a past version.
	SnapshotOldReads uint64
	// Kills counts cooperative kills requested by contention managers.
	Kills uint64
	// Extensions counts successful read-version extensions (only with
	// WithReadExtension enabled).
	Extensions uint64
	// SnapshotPins counts successful TM.PinSnapshot acquisitions.
	SnapshotPins uint64
	// Privatizations counts successful TM.Privatize detach barriers.
	Privatizations uint64
}

// TotalAborts sums aborts across all reasons.
func (s Stats) TotalAborts() uint64 {
	var n uint64
	for _, v := range s.Aborts {
		n += v
	}
	return n
}

// AbortRate returns aborts / attempts, or 0 when nothing ran.
func (s Stats) AbortRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(s.Attempts)
}

// snapshot sums the stripes into an exported Stats value.
func (c *counters) snapshot() Stats {
	var aborts [abortReasonCount]uint64
	var updates, parked uint64
	s := Stats{
		Kills:          c.kills.Load(),
		SnapshotPins:   c.pins.Load(),
		Privatizations: c.privatizes.Load(),
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		s.ReadOnlyCommits += st.readOnlyCommits.Load()
		updates += st.updateCommits.Load()
		parked += st.parked.Load()
		for r := range aborts {
			aborts[r] += st.aborts[r].Load()
		}
		s.Cuts += st.cuts.Load()
		s.SnapshotOldReads += st.snapshotOld.Load()
		s.Extensions += st.extensions.Load()
	}
	s.Commits = s.ReadOnlyCommits + updates
	s.Aborts = make(map[AbortReason]uint64, abortReasonCount)
	for r, n := range aborts {
		if n > 0 {
			s.Aborts[AbortReason(r)] = n
		}
	}
	s.Attempts = s.Commits + s.TotalAborts() + parked
	return s
}

// endAttempt folds the ending attempt's per-read tallies into the
// handle's stat stripe and returns the stripe, on which the caller books
// the attempt's one outcome. Every way an attempt ends calls it exactly
// once: commit (both success paths), Atomically's abort, park and panic
// paths, and CrossTx's Commit and finishAbort.
func (tx *Tx) endAttempt() *statStripe {
	s := &tx.tm.stats.stripes[tx.idEnd/txIDBatch%statStripes]
	if tx.cuts != 0 {
		s.cuts.Add(uint64(tx.cuts))
	}
	if tx.snapshotOld != 0 {
		s.snapshotOld.Add(tx.snapshotOld)
	}
	if tx.extensions != 0 {
		s.extensions.Add(tx.extensions)
	}
	return s
}
