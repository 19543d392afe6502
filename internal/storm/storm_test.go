package storm

import (
	"testing"

	"repro/internal/core"
)

// smallCfg keeps storms quick enough for -race while still producing
// hundreds of committed transactions per run. Chaos perturbations stay on
// to diversify interleavings.
func smallCfg(workload string, seed uint64) Config {
	return Config{Workload: workload, Workers: 4, Ops: 120, Keys: 24, Seed: seed, Chaos: 10}
}

// TestStormAllWorkloads is the main property test: every workload, under
// the default mixed-semantics storm, must produce a history in which every
// transaction kept its own guarantee and every abstract operation is
// explainable by the TM's serialization order.
func TestStormAllWorkloads(t *testing.T) {
	for _, name := range Workloads() {
		for _, seed := range []uint64{1, 7} {
			name, seed := name, seed
			t.Run(name, func(t *testing.T) {
				rep, err := Run(smallCfg(name, seed))
				if err != nil {
					t.Fatalf("config: %v", err)
				}
				if err := rep.Err(); err != nil {
					t.Fatalf("storm violation: %v", err)
				}
				if rep.Stats.Commits == 0 {
					t.Fatal("storm committed nothing")
				}
				// shardbank's transactions run on its partition's TMs; its
				// per-shard verdicts are checked inside its own model check
				// (and gated in shardbank_test.go), so the harness-level
				// verdict is legitimately empty for it.
				if name != "shardbank" && rep.Verdict.Classic.Txs == 0 {
					t.Fatal("no classic transactions checked")
				}
			})
		}
	}
}

// TestCellsWorkloadsCoverBothShapes pins what the raw-cell storms are for:
// "cells" drives ref-shaped TypedCell[any] cells and "typedcells"
// word-shaped TypedCell[int] cells, so -workload all storms both
// representations of the engine.
func TestCellsWorkloadsCoverBothShapes(t *testing.T) {
	tm := core.New()
	if _, ok := newCellsWorkload(tm, 2, false).cells[0].(refSlot); !ok {
		t.Error(`"cells" does not run over TypedCell[any]`)
	}
	if _, ok := newCellsWorkload(tm, 2, true).cells[0].(wordSlot); !ok {
		t.Error(`"typedcells" does not run over TypedCell[int]`)
	}
}

// TestMixedSemanticsExercised confirms the default mix actually runs all
// three semantics concurrently on a structure that tolerates all three.
func TestMixedSemanticsExercised(t *testing.T) {
	rep, err := Run(smallCfg("linkedlist", 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for _, sem := range []core.Semantics{core.Classic, core.Elastic, core.Snapshot} {
		if rep.SemanticsTxs[sem] == 0 {
			t.Fatalf("mix ran no %s transactions: %v", sem, rep.SemanticsTxs)
		}
	}
	if rep.Verdict.Elastic.Txs == 0 || rep.Verdict.Snapshot.Txs == 0 {
		t.Fatalf("verdict checked no elastic/snapshot txs: %s", rep.Verdict)
	}
}

// TestMixRestriction: a classic-only mix must record no elastic or
// snapshot transactions at all.
func TestMixRestriction(t *testing.T) {
	cfg := smallCfg("skiplist", 5)
	cfg.Mix = Mix{Classic: 100}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if n := rep.SemanticsTxs[core.Elastic] + rep.SemanticsTxs[core.Snapshot]; n != 0 {
		t.Fatalf("classic-only mix ran %d non-classic txs", n)
	}
}

// TestSeedReproducibility: the seed fixes every worker's operation
// sequence, so the input digest must be bit-identical across runs and
// differ across seeds.
func TestSeedReproducibility(t *testing.T) {
	a, err := Run(smallCfg("treemap", 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg("treemap", 11))
	if err != nil {
		t.Fatal(err)
	}
	if a.InputDigest != b.InputDigest {
		t.Fatalf("same seed, different digests: %016x vs %016x", a.InputDigest, b.InputDigest)
	}
	c, err := Run(smallCfg("treemap", 12))
	if err != nil {
		t.Fatal(err)
	}
	if c.InputDigest == a.InputDigest {
		t.Fatalf("different seeds, same digest %016x", a.InputDigest)
	}
}

// TestCorruptRecorderCaught proves the verifier is not vacuous: a storm
// recorded through the version-skewing recorder must fail the verdict.
func TestCorruptRecorderCaught(t *testing.T) {
	cfg := smallCfg("linkedlist", 1)
	cfg.WrapRecorder = func(inner core.Recorder) core.Recorder {
		return NewVersionSkewRecorder(inner, 5)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("corrupted history passed the checker")
	}
}

// TestUnknownWorkload is the config-error path.
func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(Config{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
