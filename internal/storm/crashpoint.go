package storm

import (
	"fmt"
	"maps"
	"math/rand"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persistmap"
)

// CrashPointConfig sizes one exhaustive crash-point exploration.
type CrashPointConfig struct {
	Seed         int64
	Commits      int // durable commits to drive (default 32)
	Keys         int // key range of the seeded mutations (default 8)
	SegmentBytes int // WAL roll threshold; small forces several segments (default 96)
	TornSamples  int // torn-suffix variants per boundary beyond the clean cut (default 3)
}

// CrashPointReport summarizes one exhaustive crash-point exploration.
type CrashPointReport struct {
	Case       string
	Commits    int      // durable commits the recorded run acked
	Boundaries int      // operation boundaries enumerated (= recorded fs ops + 1)
	Images     int      // crash images replayed: one clean cut per boundary plus torn variants
	Failures   []string // one entry per failing image (capped)
}

const maxCrashPointFailures = 8

// Err returns nil when every crash image recovered a legal state.
func (r *CrashPointReport) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	return fmt.Errorf("crashpoints %s: %d/%d images failed, first: %s",
		r.Case, len(r.Failures), r.Images, r.Failures[0])
}

// crashAck is one acked-commit boundary of the recorded run: after the
// fs had performed ops operations, every commit whose cumulative effect
// is state had been durably acknowledged.
type crashAck struct {
	ops   int
	state map[int]int
}

// ExploreCrashPoints is the durability analogue of ExploreTiny: instead
// of enumerating interleavings it enumerates POWER CUTS. A seeded,
// serial persist run — durable WAL commits interleaved with the store's
// checkpoint cycle (pin, full checkpoint, TrimTo, release, then removal of
// the superseded full) — executes against a tracing FaultFS, recording
// the acked commit prefix at every filesystem operation boundary. The
// explorer then simulates a crash at EVERY boundary (and, where unsynced
// bytes were pending, a sample of torn suffixes of them) by
// materializing the crash image — synced bytes only — and replaying it
// into a fresh TM. The invariant is the one the
// WAL's ack contract promises: the recovered map must be byte-for-byte
// the state of some commit prefix that CONTAINS every commit acked
// before the cut. Recovering more than was acked is legal (a record can
// be durable an instant before its ack returns); recovering less, or
// any state that is not an exact commit prefix, fails.
//
// opts configure the TM under exploration (clock scheme …) so the
// enumeration can run against every runtime configuration.
func ExploreCrashPoints(name string, cfg CrashPointConfig, opts ...core.Option) (*CrashPointReport, error) {
	if cfg.Commits <= 0 {
		cfg.Commits = 32
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 8
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 96
	}
	if cfg.TornSamples <= 0 {
		cfg.TornSamples = 3
	}
	const dir = "ckpt"

	// Recorded run: everything the durability stack writes goes through
	// the tracing fs; nothing touches the real disk.
	ffs := faultfs.New(nil)
	tm := core.New(opts...)
	m := persistmap.New[int](tm)
	s, err := persistmap.NewStoreWith(dir, persistmap.IntCodec{}, persistmap.StoreOptions{FS: ffs})
	if err != nil {
		return nil, err
	}
	w, err := s.OpenWAL(persistmap.WALOptions{SegmentBytes: int64(cfg.SegmentBytes)})
	if err != nil {
		return nil, err
	}
	m.AttachWAL(w, true)

	state := map[int]int{}
	acks := []crashAck{{0, maps.Clone(state)}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var prev string // the newest full checkpoint, superseded by the next
	for i := 0; i < cfg.Commits; i++ {
		key := rng.Intn(cfg.Keys)
		if rng.Intn(4) == 0 && len(state) > 0 {
			if _, err := m.Delete(key); err != nil {
				return nil, fmt.Errorf("crashpoints: delete %d: %w", key, err)
			}
			delete(state, key)
		} else {
			val := rng.Intn(1 << 12)
			if _, err := m.Put(key, val); err != nil {
				return nil, fmt.Errorf("crashpoints: put %d: %w", key, err)
			}
			state[key] = val
		}
		// The Put/Delete above returned only after its WAL record was
		// synced: this boundary is an ACKED commit prefix.
		acks = append(acks, crashAck{ffs.Ops(), maps.Clone(state)})

		// A checkpoint every 7 commits, the store's cycle exactly: the
		// removal of the superseded full comes after the new one and the
		// trim are durable, so a cut between them finds both fulls.
		if (i+1)%7 == 0 {
			path, err := checkpoint(tm, m, s, w)
			if err != nil {
				return nil, err
			}
			if prev != "" && prev != path {
				if err := ffs.Remove(prev); err != nil {
					return nil, err
				}
				if err := ffs.SyncDir(dir); err != nil {
					return nil, err
				}
			}
			prev = path
		}
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("crashpoints: wal close: %w", err)
	}

	// Enumeration: a power cut at every operation boundary of the trace.
	total := ffs.Ops()
	rep := &CrashPointReport{Case: name, Commits: cfg.Commits, Boundaries: total + 1}
	fail := func(msg string) {
		if len(rep.Failures) < maxCrashPointFailures {
			rep.Failures = append(rep.Failures, msg)
		}
	}
	ackIdx := 0
	for k := 0; k <= total; k++ {
		// Largest acked prefix wholly before this boundary; k only
		// grows, so the cursor just advances.
		for ackIdx+1 < len(acks) && acks[ackIdx+1].ops <= k {
			ackIdx++
		}
		img, avail := ffs.CrashImage(k, 0)
		rep.Images++
		if msg := replayCrashImage(dir, img, acks, ackIdx); msg != "" {
			fail(fmt.Sprintf("boundary %d (clean cut): %s", k, msg))
		}
		for _, t := range tornSamples(avail, cfg.TornSamples) {
			timg, _ := ffs.CrashImage(k, t)
			rep.Images++
			if msg := replayCrashImage(dir, timg, acks, ackIdx); msg != "" {
				fail(fmt.Sprintf("boundary %d (torn +%dB of %d): %s", k, t, avail, msg))
			}
		}
	}
	return rep, nil
}

// checkpoint is one checkpoint cycle: pin, copy at the pin, write the full
// checkpoint, trim the WAL to its version, release. It returns the full's
// path.
func checkpoint(tm *core.TM, m *persistmap.Map[int], s *persistmap.Store[int], w *persistmap.WAL[int]) (string, error) {
	pin, err := tm.PinSnapshot()
	if err != nil {
		return "", err
	}
	defer pin.Release()
	b, err := m.BackupAt(pin)
	if err != nil {
		return "", err
	}
	path, err := s.WriteFull(b)
	if err != nil {
		return "", err
	}
	if _, err := w.TrimTo(b.Version); err != nil {
		return "", err
	}
	return path, nil
}

// tornSamples picks up to n distinct torn-suffix lengths in [1, avail]:
// always the 1-byte and full-suffix extremes, evenly spaced between.
func tornSamples(avail, n int) []int {
	if avail <= 0 || n <= 0 {
		return nil
	}
	if avail <= n {
		out := make([]int, avail)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	out := make([]int, 0, n)
	last := 0
	for i := 0; i < n; i++ {
		t := 1 + i*(avail-1)/(n-1)
		if t > last {
			out = append(out, t)
			last = t
		}
	}
	return out
}

// replayCrashImage recovers the crash image into a fresh TM and checks
// the acked-prefix invariant: recovery must succeed (a crash image is a
// legal disk by construction — any refusal is a bug) and the recovered
// bindings must equal acks[j].state for some j >= minIdx.
func replayCrashImage(dir string, img *faultfs.FaultFS, acks []crashAck, minIdx int) string {
	rs, err := persistmap.NewStoreWith(dir, persistmap.IntCodec{}, persistmap.StoreOptions{FS: img})
	if err != nil {
		return fmt.Sprintf("store open: %v", err)
	}
	freshTM := core.New()
	fresh := persistmap.New[int](freshTM)
	if _, err := rs.Replay(fresh); err != nil {
		return fmt.Sprintf("replay: %v", err)
	}
	recovered := make(map[int]int)
	if err := freshTM.Atomically(core.Snapshot, func(tx *core.Tx) error {
		clear(recovered)
		fresh.Tree().AscendTx(tx, func(k, v int) bool {
			recovered[k] = v
			return true
		})
		return nil
	}); err != nil {
		return fmt.Sprintf("read-back: %v", err)
	}
	for j := minIdx; j < len(acks); j++ {
		if maps.Equal(recovered, acks[j].state) {
			return ""
		}
	}
	// Distinguish "lost acked data" (matches an EARLIER prefix) from
	// "not a prefix at all" for the failure message.
	for j := 0; j < minIdx; j++ {
		if maps.Equal(recovered, acks[j].state) {
			return fmt.Sprintf("recovered commit prefix %d, but prefix %d was already acked", j, minIdx)
		}
	}
	return fmt.Sprintf("recovered %d binding(s) match no commit-prefix state (acked prefix %d)", len(recovered), minIdx)
}
