package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func tinyWorkload(threads int) Workload {
	return Workload{
		InitialSize: 64,
		UpdatePct:   10,
		SizePct:     10,
		Duration:    30 * time.Millisecond,
		Threads:     threads,
	}
}

func TestPrefillReachesInitialSize(t *testing.T) {
	for _, f := range []Factory{
		SequentialFactory(), ClassicSTMFactory(), ElasticMixedFactory(),
		SnapshotMixedFactory(), COWFactory(),
	} {
		s, _ := f.build()
		w := tinyWorkload(1)
		if err := Prefill(s, w); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		n, err := s.Size()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if n != w.InitialSize {
			t.Fatalf("%s: prefilled size %d, want %d", f.Name, n, w.InitialSize)
		}
	}
}

func TestRunProducesSaneCounts(t *testing.T) {
	for _, f := range []Factory{ClassicSTMFactory(), SnapshotMixedFactory(), COWFactory()} {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			res, err := Run(f, tinyWorkload(2))
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations executed")
			}
			if res.Errors != 0 {
				t.Fatalf("%d operation errors", res.Errors)
			}
			if got := res.Contains + res.Adds + res.Removes + res.Sizes; got != res.Ops {
				t.Fatalf("counts %d do not add up to ops %d", got, res.Ops)
			}
			if res.Throughput <= 0 {
				t.Fatalf("throughput %v", res.Throughput)
			}
			// The mix must be roughly respected (wide tolerance: the
			// run is short). Contains should dominate.
			if res.Contains < res.Sizes {
				t.Fatalf("mix off: contains=%d sizes=%d", res.Contains, res.Sizes)
			}
		})
	}
}

func TestSweepNormalizes(t *testing.T) {
	series, seqRes, err := Sweep(
		SequentialFactory(),
		[]Factory{COWFactory()},
		[]int{1, 2},
		tinyWorkload(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Throughput <= 0 {
		t.Fatal("sequential baseline did not run")
	}
	if len(series) != 1 || len(series[0].Speedups) != 2 {
		t.Fatalf("series shape: %+v", series)
	}
	for _, sp := range series[0].Speedups {
		if sp <= 0 {
			t.Fatalf("non-positive speedup %v", sp)
		}
	}
}

func TestRunFigureRenders(t *testing.T) {
	var sb strings.Builder
	fig := Figure9(tinyWorkload(0), []int{1, 2})
	series, _, err := RunFigure(&sb, fig)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("figure 9 has %d series, want 3", len(series))
	}
	out := sb.String()
	for _, want := range []string{"figure9", "threads", "elastic+snapshot", "classic-stm", "collection(cow)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadDefaults(t *testing.T) {
	w := Workload{InitialSize: 10}
	w.fill()
	if w.KeyRange != 20 || w.Threads != 1 || w.Duration == 0 || w.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", w)
	}
}

func TestFigureConstructors(t *testing.T) {
	w := PaperWorkload(128, 4, 10*time.Millisecond)
	if w.UpdatePct != 10 || w.SizePct != 10 || w.InitialSize != 128 {
		t.Fatalf("paper workload: %+v", w)
	}
	if len(Figure5(w, DefaultThreads()).Impls) != 2 {
		t.Fatal("figure 5 should have 2 systems")
	}
	if len(Figure7(w, DefaultThreads()).Impls) != 3 {
		t.Fatal("figure 7 should have 3 systems")
	}
	if len(Figure9(w, DefaultThreads()).Impls) != 3 {
		t.Fatal("figure 9 should have 3 systems")
	}
}

// encodeTrajectory re-encodes a trajectory exactly as AppendJSONRun does.
func encodeTrajectory(t *testing.T, file *JSONFile) []byte {
	t.Helper()
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// The committed trajectory is frozen history recorded partly by sweeps
// that no longer exist; AppendJSONRun round-trips the whole file through
// the JSON structs, so a dropped field tag would strip old runs on the
// next -json append. Decoding and re-encoding must be the identity.
func TestTrajectoryRoundTripsAndAppends(t *testing.T) {
	orig, err := os.ReadFile("../../BENCH_collection.json")
	if err != nil {
		t.Fatal(err)
	}
	var file JSONFile
	if err := json.Unmarshal(orig, &file); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTrajectory(t, &file), orig) {
		t.Fatal("BENCH_collection.json does not survive a decode/encode round trip")
	}
	recorded := len(file.Runs)

	path := filepath.Join(t.TempDir(), "traj.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	fig := Figure5(tinyWorkload(0), []int{1})
	series, seq, err := RunFigure(io.Discard, fig)
	if err != nil {
		t.Fatal(err)
	}
	run := NewJSONRun("collectionbench", "appended", "gv1", fig.Workload)
	run.AddFigure(fig.Name, series, seq)
	if err := AppendJSONRun(path, run); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var grown JSONFile
	if err := json.Unmarshal(data, &grown); err != nil {
		t.Fatal(err)
	}
	if len(grown.Runs) != recorded+1 || grown.Runs[recorded].Label != "appended" {
		t.Fatalf("appended trajectory has %d runs, last %q", len(grown.Runs), grown.Runs[len(grown.Runs)-1].Label)
	}
	grown.Runs = grown.Runs[:recorded]
	if !bytes.Equal(encodeTrajectory(t, &grown), orig) {
		t.Fatal("AppendJSONRun changed a recorded run")
	}
}
