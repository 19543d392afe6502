package storm

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// TestExploreCrashPoints runs the exhaustive power-cut enumeration under
// both clock schemes: every operation boundary of a seeded persist run,
// clean cut and torn variants, must recover to a commit-prefix state
// containing the acked prefix.
func TestExploreCrashPoints(t *testing.T) {
	for _, sch := range clock.Schemes() {
		t.Run(sch.String(), func(t *testing.T) {
			rep, err := ExploreCrashPoints(sch.String(), CrashPointConfig{Seed: 7}, core.WithClockScheme(sch))
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			if rep.Boundaries < 50 {
				t.Fatalf("only %d boundaries enumerated — the run barely touched the fs", rep.Boundaries)
			}
			if rep.Images <= rep.Boundaries {
				t.Fatalf("%d images for %d boundaries: no torn variants were explored", rep.Images, rep.Boundaries)
			}
			t.Logf("%s: %d commits, %d boundaries, %d crash images, all recovered",
				sch, rep.Commits, rep.Boundaries, rep.Images)
		})
	}
}

// TestExploreCrashPointsSeeds varies the seed so checkpoint cadence and
// op mix land the cuts in different regions (mid-segment, mid-roll,
// mid-removal of a superseded full) across runs.
func TestExploreCrashPointsSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is the long variant")
	}
	for seed := int64(1); seed <= 4; seed++ {
		rep, err := ExploreCrashPoints("seed-sweep", CrashPointConfig{Seed: seed, Commits: 48, SegmentBytes: 64})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
