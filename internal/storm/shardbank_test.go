package storm

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestShardBankStormAcrossClockSchemes is the shard gate: cross-shard
// transfers and global audits over a 4-shard partition must conserve the
// bank total, every shard's recorded history must pass its own verdict,
// and the coordinator's decision order must match each shard's
// serialization order — non-vacuously. GVSharded is the adversarial
// scheme here: its stripes publish out of numeric order, so the
// coordinator's fixed-stripe draw discipline is what the order check
// leans on. Run with -race.
func TestShardBankStormAcrossClockSchemes(t *testing.T) {
	for _, s := range []core.ClockScheme{core.ClockGV1, core.ClockGVSharded} {
		for _, seed := range []uint64{3, 17} {
			s, seed := s, seed
			t.Run(fmt.Sprintf("%s/seed=%d", s, seed), func(t *testing.T) {
				rep, err := Run(Config{
					Workload: "shardbank",
					Workers:  6,
					Ops:      150,
					Keys:     24,
					Seed:     seed,
					Chaos:    10,
					Clock:    s,
				})
				if err != nil {
					t.Fatalf("config: %v", err)
				}
				if rerr := rep.Err(); rerr != nil {
					t.Fatalf("scheme %s: %v", s, rerr)
				}
				// The run must actually have exercised the cross path and
				// produced order pairs to compare.
				nonVacuous := false
				for _, n := range rep.Notes {
					if strings.Contains(n, "order-pairs=") && !strings.Contains(n, "order-pairs=0") {
						nonVacuous = true
					}
				}
				if !nonVacuous {
					t.Fatalf("scheme %s: cross-shard order check was vacuous: notes %q", s, rep.Notes)
				}
			})
		}
	}
}

// TestShardBankStormSettlesUnderShardedClock is the gate on the cross-shard
// retry livelock. A coordinator retries with fresh sub-transactions, so if
// they read the sharded clock's per-stripe recent version, every retry is
// a "first attempt" on a possibly stale stripe, and the more stripes, the
// longer the abort storm: at GOMAXPROCS=8 this config took minutes, with
// aborts outnumbering commits a thousandfold. Cross sub-transactions read
// the exact clock, so it settles at once.
func TestShardBankStormSettlesUnderShardedClock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // 8 clock stripes
	start := time.Now()
	rep, err := Run(Config{
		Workload: "shardbank",
		Workers:  6,
		Ops:      150,
		Keys:     24,
		Seed:     3,
		Chaos:    10,
		Clock:    core.ClockGVSharded,
	})
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	if rerr := rep.Err(); rerr != nil {
		t.Fatal(rerr)
	}
	elapsed := time.Since(start)
	var aborts uint64
	for _, n := range rep.Stats.Aborts {
		aborts += n
	}
	t.Logf("%v, %d aborts for %d commits: %v", elapsed, aborts, rep.Stats.Commits, rep.Stats.Aborts)
	if elapsed > 2*time.Second {
		t.Errorf("took %v, want < 2s", elapsed)
	}
	if aborts > 2*rep.Stats.Commits {
		t.Errorf("%d aborts for %d commits, want at most 2 per commit", aborts, rep.Stats.Commits)
	}
}
