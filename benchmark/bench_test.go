package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persistmap"
)

func smokePlan(t *testing.T) plan {
	return plan{seed: 1, setups: 1, warm: 50 * time.Millisecond, measure: 200 * time.Millisecond,
		traced: 350 * time.Millisecond, out: t.TempDir()}
}

// TestWorkloadsSmoke runs every workload briefly with every check on, and
// checks the bypasses the workloads were chosen for.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			pl := smokePlan(t)
			r := runWorkload(wl, pl)
			for _, n := range r.notes {
				t.Errorf("failed check: %s", n)
			}
			u, tr := r.totals(0, pl.measure.Seconds()), r.totals(1, pl.traced.Seconds())
			if u.failed+tr.failed != 0 {
				t.Errorf("%d ops failed", u.failed+tr.failed)
			}
			for cl, pct := range wl.mix {
				if got := u.whole[cl].n > 0; got != (pct > 0) {
					t.Errorf("class %s: samples=%d with %d %% of the mix", classNames[cl], u.whole[cl].n, pct)
				}
			}
			e2e, layers := r.endToEnd(u), r.perLayer(u, tr, nil)
			for _, d := range endToEndDefs {
				if v, ok := e2e[d.name]; !ok || v.v <= 0 {
					t.Errorf("end-to-end metric %s = %v, present=%v; want > 0", d.name, v.v, ok)
				}
			}
			for name, want := range map[string]bool{
				"walsync.ack_wait_ns":          wl.durable,
				"lat.recover_s":                wl.durable,
				"core.pin_hold_ms":             wl.durable,
				"shard.atomically_all_self_ns": wl.mix[classTxn] > 0,
				"lat.txn_p50_ns":               wl.mix[classTxn] > 0,
				"cache.get_ns":                 true,
				"txstruct.range_ns":            true,
			} {
				if _, ok := layers[name]; ok != want {
					t.Errorf("per-layer metric %s present=%v, want %v", name, ok, want)
				}
			}
			if wl.name == "read-hot" && layers["cache.evictions_per_put"].v != 0 {
				t.Errorf("read-hot evicts: %v per put", layers["cache.evictions_per_put"].v)
			}
			if end := r.snaps[3]; wl.name == "churn-miss" && end.misses > int64(numShards*wl.cacheCap) && end.evict == 0 {
				t.Errorf("churn-miss: %d misses overflowed the caches and nothing was evicted", end.misses)
			}
			if _, err := os.Stat(filepath.Join(pl.out, "trace-"+wl.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestInvokeResultLine checks the last line an invocation prints.
func TestInvokeResultLine(t *testing.T) {
	for _, trace := range []int{traceOff, traceOn} {
		pl := smokePlan(t)
		defs := perLayerDefs
		if trace == traceOff {
			pl.traced, defs = 0, endToEndDefs
		}
		var out bytes.Buffer
		if !invoke(&out, &workloads[0], pl, trace, false) {
			t.Errorf("trace=%d: invoke reported a failed check:\n%s", trace, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace=%d: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("trace=%d: correct=%v attempted=%d failed=%d metrics=%d want %d",
				trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace=%d: metric %s missing or unit %q != %q", trace, d.name, m.Unit, d.unit)
			}
		}
	}
}

// TestWatchdog hangs every put behind a durable-ack barrier that never
// returns: the run must still end, count the stuck clients as failed and
// leave a goroutine dump.
func TestWatchdog(t *testing.T) {
	pl := smokePlan(t)
	pl.warm, pl.measure, pl.traced = 10*time.Millisecond, 50*time.Millisecond, 0
	r := newRun(&workloads[0], pl)
	block := make(chan struct{})
	defer close(block)
	for i := 0; i < numShards; i++ {
		r.s.p.TM(i).SetDurableAck(func(*core.Tx) error { <-block; return nil })
	}
	r.drive()
	if r.hung != len(r.clients) || len(r.notes) == 0 {
		t.Fatalf("hung=%d of %d clients, notes=%q", r.hung, len(r.clients), r.notes)
	}
	if _, err := os.Stat(filepath.Join(pl.out, "goroutines-read-hot.txt")); err != nil {
		t.Error(err)
	}
}

func TestHistPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	raw := make([]float64, 200_000)
	for i := range raw {
		v := int64(math.Exp(rng.Float64()*16 + 3)) // ~20 ns .. ~180 ms, log-uniform
		raw[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		got, ok := h.percentile(q)
		want := raw[int(math.Ceil(q*float64(len(raw))))-1]
		if !ok || math.Abs(got-want) > 0.03*want {
			t.Errorf("p%g = %v, sorted samples say %v", 100*q, got, want)
		}
	}
	var small hist
	for v := int64(0); v < 200; v++ {
		small.record(v)
	}
	if got, _ := small.percentile(0.5); math.Abs(got-99) > 1 {
		t.Errorf("p50 of 0..199 = %v", got)
	}
	if _, ok := new(hist).percentile(0.5); ok {
		t.Error("empty histogram reported a percentile")
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] ── atomically [10,90] ── cache.get [20,30]
	//           │                     └─ persistmap.get [40,70]
	//           └─ route [2,6]
	spans := []span{
		{name: lOp, parent: -1, start: 0, end: 100},
		{name: lRoute, parent: 0, start: 2, end: 6},
		{name: lAtomically, parent: 0, start: 10, end: 90},
		{name: lCacheGet, parent: 2, start: 20, end: 30},
		{name: lMapGet, parent: 2, start: 40, end: 70},
	}
	self := make([]int64, len(spans))
	selfTimes(spans, self)
	want := []int64{16, 4, 40, 10, 30}
	var sum int64
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, the op took 100", sum)
	}

	tr := newTracer(100)
	tr.on = true
	root := tr.beginAt(lOp, 0)
	a := tr.beginAt(lAtomically, 10)
	tr.endAt(tr.beginAt(lCacheGet, 20), 30)
	tr.endAt(a, 90)
	tr.endAt(root, 100)
	tr.fold(classGet, false)
	if v, _ := tr.self[classGet][lAtomically].percentile(0.5); v != 70 {
		t.Errorf("folded core.atomically self = %v, want 70", v)
	}
	if v, _ := tr.self[classGet][lMapGet].percentile(0.5); v != 0 || tr.self[classGet][lMapGet].n != 1 {
		t.Errorf("an untouched layer must fold as one 0 sample, got %v n=%d", v, tr.self[classGet][lMapGet].n)
	}
	if len(tr.sample) != 3 || tr.cur != -1 || len(tr.spans) != 0 {
		t.Errorf("after fold: %d sampled spans, cur=%d, %d open", len(tr.sample), tr.cur, len(tr.spans))
	}
}

func readAll(t *testing.T, fs *memFS, name string) string {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(f)
	return string(b)
}

func TestMemFSCrash(t *testing.T) {
	fs := newMemFS()
	fs.MkdirAll("d")
	write := func(name, synced, unsynced string) {
		t.Helper()
		f, err := fs.Create(name, true)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte(synced))
		if synced != "" {
			f.Sync()
		}
		f.Write([]byte(unsynced))
	}
	// Entries made durable by SyncDir.
	write("d/kept", "durable", "-volatile")
	write("d/a.tmp", "renamed in time", "")
	write("d/b.tmp", "renamed too late", "")
	write("d/removed-late", "x", "")
	if err := fs.Rename("d/a.tmp", "d/a"); err != nil {
		t.Fatal(err)
	}
	fs.SyncDir("d")
	// Entry changes the crash must undo: none is followed by a SyncDir.
	write("d/created-late", "synced bytes, unsynced entry", "")
	if err := fs.Rename("d/b.tmp", "d/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("d/removed-late"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("d/kept", true); err == nil {
		t.Error("exclusive create of an existing file succeeded")
	}

	fs.Crash()
	names, _ := fs.ReadDir("d")
	if want := []string{"a", "b.tmp", "kept", "removed-late"}; !slices.Equal(names, want) {
		t.Fatalf("after crash: %v, want %v", names, want)
	}
	if got := readAll(t, fs, "d/kept"); got != "durable" {
		t.Errorf("kept = %q: unsynced bytes survived or synced ones were lost", got)
	}
	if got := readAll(t, fs, "d/a"); got != "renamed in time" {
		t.Errorf("a = %q", got)
	}
	if fs.syncs.Load() == 0 || fs.writes.Load() == 0 || fs.writeBytes.Load() == 0 {
		t.Error("device counters did not move")
	}
}

// TestMemFSReplay is the durability round trip through memFS: acked puts
// survive a crash with the WAL still open; nothing else appears.
func TestMemFSReplay(t *testing.T) {
	fs := newMemFS()
	open := func() (*persistmap.Map[int], *persistmap.Store[int]) {
		st, err := persistmap.NewStoreWith[int]("m", persistmap.IntCodec{}, persistmap.StoreOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		return persistmap.New[int](core.New()), st
	}
	m, st := open()
	w, err := st.OpenWAL(persistmap.WALOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(w, true)
	for k := 0; k < 500; k++ {
		if _, err := m.Put(k%200, k); err != nil {
			t.Fatal(err)
		}
	}
	fs.Crash()
	m2, st2 := open()
	if _, err := st2.Replay(m2); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		a, _, _ := m.Get(k)
		b, ok, _ := m2.Get(k)
		if !ok || a != b {
			t.Fatalf("key %d: live %d, recovered %d (found=%v)", k, a, b, ok)
		}
	}
	if n, _ := m2.Len(); n != 200 {
		t.Errorf("recovered %d keys, want 200", n)
	}
	w.Close()
}

func streamDigest(seed int64, client int, n int) uint64 {
	g := newOpGen(seed, client, workloads[2].mix)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		class, k, k2 := g.next()
		h.Write([]byte{byte(class), byte(k), byte(k >> 8), byte(k2), byte(k2 >> 8)})
	}
	return h.Sum64()
}

func TestOpStreamIsSeeded(t *testing.T) {
	a, b := streamDigest(1, 0, 10_000), streamDigest(1, 0, 10_000)
	if a != b {
		t.Error("same seed and client gave different op streams")
	}
	if streamDigest(2, 0, 10_000) == a || streamDigest(1, 1, 10_000) == a {
		t.Error("another seed or client gave the same op stream")
	}
	seen := map[int]bool{}
	for r := uint64(0); r < numKeys; r++ {
		seen[permute(r)] = true
	}
	if len(seen) != numKeys {
		t.Errorf("permute maps ranks onto %d keys, want %d", len(seen), numKeys)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q != %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []jm, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}
