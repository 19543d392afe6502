package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"time"
)

// This file implements the machine-readable side of the bench harness: a
// JSON "trajectory" file that accumulates one entry per benchmark run, so
// performance PRs can commit a before/after pair and later sessions can
// extend the same file instead of starting a fresh measurement story.

// JSONPoint is one measured (implementation, thread-count) point.
type JSONPoint struct {
	Threads    int     `json:"threads"`
	Ops        uint64  `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Speedup    float64 `json:"speedup,omitempty"` // over the sequential baseline; absent where not normalized (ablation points)
	TxCommits  uint64  `json:"tx_commits,omitempty"`
	TxAborts   uint64  `json:"tx_aborts,omitempty"`
	TxAttempts uint64  `json:"tx_attempts,omitempty"`
	AbortRate  float64 `json:"abort_rate,omitempty"`
	HitRate    float64 `json:"hit_rate,omitempty"` // recorded cache-sweep points only
}

// JSONSeries is one implementation's curve within a figure. Shards,
// CrossPct and Stripes (and JSONPoint.HitRate) are written by no sweep
// that still exists; they stay because AppendJSONRun round-trips the
// whole trajectory through these structs, and the recorded runs of the
// partitioned-store and cache sweeps carry them.
type JSONSeries struct {
	Impl     string      `json:"impl"`
	Shards   int         `json:"shards,omitempty"`
	CrossPct int         `json:"cross_pct,omitempty"`
	Stripes  int         `json:"stripes,omitempty"`
	Points   []JSONPoint `json:"points"`
}

// JSONFigure is one figure of a run: the sequential denominator plus every
// implementation's curve.
type JSONFigure struct {
	Name         string       `json:"name"`
	SeqOpsPerSec float64      `json:"seq_ops_per_sec"`
	Series       []JSONSeries `json:"series"`
}

// JSONHost records the machine topology a run measured on — the context
// without which a many-core sweep's numbers cannot be read (a 64-thread
// point on a 4-core host measures oversubscription, not scaling).
type JSONHost struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// hostInfo samples the topology at run-record time. The CPU model comes
// from /proc/cpuinfo where available and is empty elsewhere.
func hostInfo() JSONHost {
	h := JSONHost{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// JSONWorkload records the workload parameters a run measured under.
type JSONWorkload struct {
	InitialSize int    `json:"initial_size"`
	UpdatePct   int    `json:"update_pct"`
	SizePct     int    `json:"size_pct"`
	Duration    string `json:"duration"`
}

// JSONRun is one benchmark invocation: the environment, the workload, the
// clock scheme under test and every figure measured.
type JSONRun struct {
	Bench      string       `json:"bench"`
	Label      string       `json:"label"`
	Time       string       `json:"time"`
	GoVersion  string       `json:"go_version"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Host       JSONHost     `json:"host"`
	Scheme     string       `json:"clock_scheme"`
	Workload   JSONWorkload `json:"workload"`
	Figures    []JSONFigure `json:"figures"`
}

// JSONFile is the on-disk trajectory: runs in append order.
type JSONFile struct {
	Runs []JSONRun `json:"runs"`
}

// NewJSONRun starts a run entry for the given tool, label and clock scheme.
func NewJSONRun(benchName, label, scheme string, w Workload) *JSONRun {
	return &JSONRun{
		Bench:      benchName,
		Label:      label,
		Time:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Host:       hostInfo(),
		Scheme:     scheme,
		Workload: JSONWorkload{
			InitialSize: w.InitialSize,
			UpdatePct:   w.UpdatePct,
			SizePct:     w.SizePct,
			Duration:    w.Duration.String(),
		},
	}
}

// AddFigure appends one measured figure (its series plus the sequential
// denominator) to the run.
func (r *JSONRun) AddFigure(name string, series []Series, seq Result) {
	jf := JSONFigure{Name: name, SeqOpsPerSec: seq.Throughput}
	for _, s := range series {
		js := JSONSeries{Impl: s.Impl}
		for i, raw := range s.Raw {
			js.Points = append(js.Points, JSONPoint{
				Threads:    raw.Threads,
				Ops:        raw.Ops,
				OpsPerSec:  raw.Throughput,
				Speedup:    s.Speedups[i],
				TxCommits:  raw.TxCommits,
				TxAborts:   raw.TxAborts,
				TxAttempts: raw.TxAttempts,
				AbortRate:  raw.AbortRate(),
			})
		}
		jf.Series = append(jf.Series, js)
	}
	r.Figures = append(r.Figures, jf)
}

// AppendJSONRun loads the trajectory at path (an absent file is an empty
// trajectory), appends run, and writes the file back, so successive runs —
// across PRs — accumulate in one committed artifact.
func AppendJSONRun(path string, run *JSONRun) error {
	var file JSONFile
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// first run: start a fresh trajectory
	case err != nil:
		return fmt.Errorf("bench json: %w", err)
	default:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("bench json: %s is not a trajectory file: %w", path, err)
		}
	}
	file.Runs = append(file.Runs, *run)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	out = append(out, '\n')
	// Write-then-rename: the trajectory accumulates runs across PRs, so an
	// interrupted write must never truncate the existing history.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("bench json: %w", err)
	}
	return nil
}
