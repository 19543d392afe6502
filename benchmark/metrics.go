package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEndDefs are the metrics a caller of the store would see, and the
// ones that gate. Every one is defined, and never 0, on every workload;
// latencies that exist on only some workloads, and the tail percentiles
// (whose run-to-run spread exceeded 10 % in calibration), are reported
// under lat.* instead.
var endToEndDefs = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"get_p50_ns", "ns", false},
	{"put_p50_ns", "ns", false},
	{"scan_p50_ns", "ns", false},
	{"allocs_per_op", "count", false},
	{"heap_live_mb", "MB", false},
}

// ladderRungs are the ladder's rungs in print order.
var ladderRungs = []string{
	"atomic_load", "detached_load", "snapshot_read", "elastic_read", "classic_read",
	"classic_write", "tree_get", "tree_put", "cache_get", "shard_get", "xshard2_put",
	"persist_put_nowal", "persist_put_durable", "syncmap_get", "rwmutex_map_get",
	"rwmutex_map_put",
}

var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"core.atomically_self_ns", "ns", false},
		{"core.attempts_per_commit", "count", false},
		{"core.abort_share", "%", false},
		{"core.ro_commit_share", "%", true},
		{"core.snapshot_old_reads", "count", false},
		{"core.put_self_ns_pinned", "ns", false},
		{"core.put_self_ns_unpinned", "ns", false},
		{"core.pin_hold_ms", "ms", false},
		{"persistmap.get_ns", "ns", false},
		{"persistmap.put_ns", "ns", false},
		{"txstruct.range_ns", "ns", false},
		{"txstruct.keys_per_scan", "count", false},
		{"persistmap.ckpt_ms", "ms", false},
		{"persistmap.ckpt_bytes_per_key", "B", false},
		{"persistmap.ckpts", "count", true},
		{"persistmap.trimmed_segments", "count", true},
		{"persistmap.replay_ms_per_shard", "ms", false},
		{"persistmap.replay_records", "count", false},
		{"cache.get_ns", "ns", false},
		{"cache.put_ns", "ns", false},
		{"cache.hit_share", "%", true},
		{"cache.evictions_per_put", "count", false},
		{"cache.demotions_per_eviction", "count", false},
		{"cache.stripe_hit_skew", "ratio", false},
		{"shard.atomically_all_self_ns", "ns", false},
		{"shard.atomically_all_self_p99_ns", "ns", false},
		{"shard.closure_runs_per_txn", "count", false},
		{"shard.cross_share", "%", false},
		{"shard.route_ns", "ns", false},
		{"shard.load_skew", "ratio", false},
		{"walsync.ack_wait_ns", "ns", false},
		{"walsync.ack_wait_p99_ns", "ns", false},
		{"walsync.records_per_batch", "count", true},
		{"walsync.max_batch", "count", true},
		{"walsync.bytes_per_record", "B", false},
		{"walsync.segments", "count", false},
		{"faultfs.writes", "count", false},
		{"faultfs.write_bytes", "B", false},
		{"faultfs.syncs", "count", false},
		{"faultfs.bytes_per_user_byte", "ratio", false},
		{"go.gc_cycles", "count", false},
		{"go.gc_pause_ms", "ms", false},
		{"go.bytes_per_op", "B", false},
		{"trace.overhead_share", "%", false},
		{"trace.span_cost_ns", "ns", false},
		{"trace.dropped_spans", "count", false},
		{"trace.get_accounted_share", "%", true},
		{"trace.put_accounted_share", "%", true},
		{"trace.scan_accounted_share", "%", true},
		{"trace.txn_accounted_share", "%", true},
		{"lat.get_p99_ns", "ns", false},
		{"lat.put_p99_ns", "ns", false},
		{"lat.scan_p99_ns", "ns", false},
		{"lat.get_p999_ns", "ns", false},
		{"lat.put_p999_ns", "ns", false},
		{"lat.scan_p999_ns", "ns", false},
		{"lat.txn_p50_ns", "ns", false},
		{"lat.txn_p99_ns", "ns", false},
		{"lat.txn_p999_ns", "ns", false},
		{"lat.recover_s", "s", false},
		{"lat.failed_share", "%", false},
	}
	for _, r := range ladderRungs {
		defs = append(defs, metricDef{"ladder." + r + "_ns", "ns", false}, metricDef{"ladder." + r + "_allocs", "count", false})
	}
	return defs
}()

// value is one measured metric: the number and how many samples stand
// behind it.
type value struct {
	v float64
	n uint64
}

// values maps metric names to what was measured; a name missing from it
// does not exist on this workload and prints as absent.
type values map[string]value

func (vs values) set(name string, v float64, n uint64) { vs[name] = value{v, n} }

// ratio sets name to num/den unless den is 0.
func (vs values) ratio(name string, num, den float64, n uint64) {
	if den != 0 {
		vs.set(name, num/den, n)
	}
}

// pct sets name to the q-quantile of h unless h is empty.
func (vs values) pct(name string, h *hist, q float64) {
	if v, ok := h.percentile(q); ok {
		vs.set(name, v, h.n)
	}
}

// windowTotals merges one window over its clients.
type windowTotals struct {
	slices  [][numClasses]hist // per slice, clients merged
	whole   [numClasses]hist   // per class, slices merged
	ops     uint64
	failed  uint64
	seconds float64

	txns, crossTxns, closureRuns, scans, scanKeys uint64
}

func (r *run) totals(w int, seconds float64) *windowTotals {
	t := &windowTotals{seconds: seconds}
	for _, c := range r.clients {
		cw := c.win[w]
		if t.slices == nil {
			t.slices = make([][numClasses]hist, len(cw.lat))
		}
		for s := range cw.lat {
			for cl := range cw.lat[s] {
				t.slices[s][cl].merge(&cw.lat[s][cl])
				t.whole[cl].merge(&cw.lat[s][cl])
			}
		}
		t.failed += cw.failed
		t.txns += cw.txns
		t.crossTxns += cw.crossTxns
		t.closureRuns += cw.closureRuns
		t.scans += cw.scans
		t.scanKeys += cw.scanKeys
	}
	for cl := range t.whole {
		t.ops += t.whole[cl].n
	}
	return t
}

// sliceMedian reports a class's q-quantile as the median of the
// per-slice quantiles, which one disturbed slice cannot move.
func (t *windowTotals) sliceMedian(vs values, name string, class opClass, q float64) {
	var per []float64
	for s := range t.slices {
		if v, ok := t.slices[s][class].percentile(q); ok {
			per = append(per, v)
		}
	}
	if len(per) > 0 {
		vs.set(name, stats.Percentile(per, 50), t.whole[class].n)
	}
}

// sliceOpsPerSecond is slice s's throughput, all classes.
func (t *windowTotals) sliceOpsPerSecond(s int) float64 {
	var n uint64
	for cl := range t.slices[s] {
		n += t.slices[s][cl].n
	}
	return float64(n) / (t.seconds / float64(len(t.slices)))
}

// opsPerSecond is the median of the per-slice throughputs.
func (t *windowTotals) opsPerSecond() float64 {
	per := make([]float64, len(t.slices))
	for s := range t.slices {
		per[s] = t.sliceOpsPerSecond(s)
	}
	return stats.Percentile(per, 50)
}

// printSlices shows each slice's throughput and median get latency, so a
// reader can tell a disturbed run from a steady one.
func (t *windowTotals) printSlices(w io.Writer, workload string) {
	var ops, get []string
	for s := range t.slices {
		v, _ := t.slices[s][classGet].percentile(0.5)
		ops = append(ops, fmt.Sprintf("%.0f", t.sliceOpsPerSecond(s)))
		get = append(get, fmt.Sprintf("%.0f", v))
	}
	fmt.Fprintf(w, "# %s: per-slice ops/s %s; get p50 ns %s\n", workload, strings.Join(ops, " "), strings.Join(get, " "))
}

// endToEnd computes the end-to-end metrics from the untraced window.
func (r *run) endToEnd(t *windowTotals) values {
	vs := values{}
	vs.set("setup_s", stats.Percentile(r.setupS, 50), uint64(len(r.setupS)))
	vs.set("ops_per_s", t.opsPerSecond(), t.ops)
	for _, cl := range []opClass{classGet, classPut, classScan} {
		t.sliceMedian(vs, classNames[cl]+"_p50_ns", cl, 0.50)
	}
	if r.snaps[1] != nil {
		vs.ratio("allocs_per_op", float64(r.snaps[1].mem.Mallocs-r.snaps[0].mem.Mallocs), float64(t.ops), t.ops)
	}
	if r.heapLiveMB > 0 {
		vs.set("heap_live_mb", r.heapLiveMB, 1)
	}
	return vs
}

func sumStats(a, b *snapshot, f func(core.Stats) uint64) float64 {
	var d uint64
	for i := range a.tm {
		d += f(b.tm[i]) - f(a.tm[i])
	}
	return float64(d)
}

// folded merges the clients' folded spans.
func (r *run) folded() *folded {
	f := new(folded)
	for _, c := range r.clients {
		f.merge(c.tr.folded)
	}
	return f
}

// accounting returns, for one op class, each layer's median self time per
// op and the median traced latency they should add up to.
func (f *folded) accounting(cl opClass) (self [numLayers]float64, total float64, ok bool) {
	for l := range self {
		self[l], _ = f.self[cl][l].percentile(0.5)
	}
	total, ok = f.total[cl].percentile(0.5)
	return self, total, ok
}

// perLayer computes the per-layer metrics: latencies that exist on only
// some workloads from the untraced window u, everything else from the
// traced window t, its counter snapshots and the folded spans.
func (r *run) perLayer(u, t *windowTotals, ladder []rungResult) values {
	vs := values{}
	for cl := opClass(0); cl < numClasses; cl++ {
		u.sliceMedian(vs, "lat."+classNames[cl]+"_p99_ns", cl, 0.99)
		vs.pct("lat."+classNames[cl]+"_p999_ns", &u.whole[cl], 0.999)
	}
	u.sliceMedian(vs, "lat.txn_p50_ns", classTxn, 0.50)
	attempted := u.ops + t.ops + uint64(r.hung)
	vs.ratio("lat.failed_share", 100*float64(u.failed+t.failed+uint64(r.hung)), float64(attempted), attempted)
	if r.rec.seconds > 0 {
		vs.set("lat.recover_s", r.rec.seconds, 1)
		vs.set("persistmap.replay_ms_per_shard", stats.Percentile(r.rec.shardMs, 50), uint64(len(r.rec.shardMs)))
		vs.set("persistmap.replay_records", float64(r.rec.records), 1)
	}
	for _, rg := range ladder {
		if rg.name == "empty_span" {
			vs.set("trace.span_cost_ns", rg.ns, uint64(rg.iters))
			continue
		}
		vs.set("ladder."+rg.name+"_ns", rg.ns, uint64(rg.iters))
		vs.set("ladder."+rg.name+"_allocs", rg.allocs, uint64(rg.iters))
	}
	a, b := r.snaps[2], r.snaps[3]
	if b == nil {
		return vs
	}

	f := r.folded()
	var dropped uint64
	for _, c := range r.clients {
		dropped += c.tr.dropped
	}
	vs.set("trace.dropped_spans", float64(dropped), t.ops)
	vs.ratio("trace.overhead_share", 100*(u.opsPerSecond()-t.opsPerSecond()), u.opsPerSecond(), t.ops)
	for cl := opClass(0); cl < numClasses; cl++ {
		if self, total, ok := f.accounting(cl); ok {
			sum := 0.0
			for _, v := range self {
				sum += v
			}
			vs.set("trace."+classNames[cl]+"_accounted_share", 100*sum/total, f.total[cl].n)
		}
	}

	vs.pct("core.atomically_self_ns", &f.atom, 0.5)
	commits := sumStats(a, b, func(s core.Stats) uint64 { return s.Commits })
	attempts := sumStats(a, b, func(s core.Stats) uint64 { return s.Attempts })
	vs.ratio("core.attempts_per_commit", attempts, commits, uint64(commits))
	vs.ratio("core.abort_share", 100*sumStats(a, b, core.Stats.TotalAborts), attempts, uint64(attempts))
	vs.ratio("core.ro_commit_share", 100*sumStats(a, b, func(s core.Stats) uint64 { return s.ReadOnlyCommits }), commits, uint64(commits))
	vs.set("core.snapshot_old_reads", sumStats(a, b, func(s core.Stats) uint64 { return s.SnapshotOldReads }), uint64(commits))
	vs.pct("core.put_self_ns_pinned", &f.putSelf[1], 0.5)
	vs.pct("core.put_self_ns_unpinned", &f.putSelf[0], 0.5)

	for _, m := range []struct {
		name string
		l    layer
	}{
		{"persistmap.get_ns", lMapGet}, {"persistmap.put_ns", lMapPut}, {"txstruct.range_ns", lRange},
		{"cache.get_ns", lCacheGet}, {"cache.put_ns", lCachePut}, {"shard.route_ns", lRoute},
		{"walsync.ack_wait_ns", lAckWait},
	} {
		vs.pct(m.name, &f.dur[m.l], 0.5)
	}
	vs.pct("walsync.ack_wait_p99_ns", &f.dur[lAckWait], 0.99)
	vs.ratio("txstruct.keys_per_scan", float64(t.scanKeys), float64(t.scans), t.scans)

	lookups := float64(b.hits - a.hits + b.misses - a.misses)
	vs.ratio("cache.hit_share", 100*float64(b.hits-a.hits), lookups, uint64(lookups))
	vs.ratio("cache.evictions_per_put", float64(b.evict-a.evict), float64(f.dur[lCachePut].n), f.dur[lCachePut].n)
	vs.ratio("cache.demotions_per_eviction", float64(b.demote-a.demote), float64(b.evict-a.evict), uint64(b.evict-a.evict))
	stripeHits := make([]float64, len(b.stripeHits))
	for i := range stripeHits {
		stripeHits[i] = float64(b.stripeHits[i] - a.stripeHits[i])
	}
	vs.ratio("cache.stripe_hit_skew", slices.Max(stripeHits), slices.Min(stripeHits), uint64(len(stripeHits)))

	if t.txns > 0 {
		all := &f.self[classTxn][lAtomicallyAll]
		vs.pct("shard.atomically_all_self_ns", all, 0.5)
		vs.pct("shard.atomically_all_self_p99_ns", all, 0.99)
		vs.ratio("shard.closure_runs_per_txn", float64(t.closureRuns), float64(t.txns), t.txns)
		vs.set("shard.cross_share", 100*float64(t.crossTxns)/float64(t.txns), t.txns)
	}
	var shardCommits [numShards]float64
	for i := range a.tm {
		shardCommits[i] = float64(b.tm[i].Commits - a.tm[i].Commits)
	}
	vs.ratio("shard.load_skew", slices.Max(shardCommits[:]), slices.Min(shardCommits[:]), uint64(commits))

	if r.wl.durable {
		recs := float64(b.wal.Records - a.wal.Records)
		vs.ratio("walsync.records_per_batch", recs, float64(b.wal.Batches-a.wal.Batches), uint64(recs))
		vs.set("walsync.max_batch", float64(b.wal.MaxBatch), uint64(b.wal.Batches))
		vs.ratio("walsync.bytes_per_record", float64(b.wal.Bytes-a.wal.Bytes), recs, uint64(recs))
		vs.set("walsync.segments", float64(b.wal.Segments), 1)
		vs.set("faultfs.writes", float64(b.fsWrites-a.fsWrites), 1)
		vs.set("faultfs.write_bytes", float64(b.fsBytes-a.fsBytes), 1)
		vs.set("faultfs.syncs", float64(b.fsSyncs-a.fsSyncs), 1)
		puts := t.whole[classPut].n
		vs.ratio("faultfs.bytes_per_user_byte", float64(b.fsBytes-a.fsBytes), 16*float64(puts), puts)

		cks := r.ckptsIn(r.traceAt[0], r.traceAt[1])
		var ms, hold []float64
		var bytes, keys int64
		trimmed := 0
		for _, c := range cks {
			ms, hold = append(ms, c.ms), append(hold, c.holdMs)
			bytes, keys, trimmed = bytes+c.bytes, keys+c.keys, trimmed+c.trimmed
		}
		n := uint64(len(cks))
		vs.set("persistmap.ckpts", float64(n), n)
		if n > 0 {
			vs.set("persistmap.ckpt_ms", stats.Percentile(ms, 50), n)
			vs.set("core.pin_hold_ms", stats.Percentile(hold, 50), n)
			vs.ratio("persistmap.ckpt_bytes_per_key", float64(bytes), float64(keys), n)
			vs.set("persistmap.trimmed_segments", float64(trimmed), n)
		}
	}

	vs.set("go.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC), 1)
	vs.set("go.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, uint64(b.mem.NumGC-a.mem.NumGC))
	vs.ratio("go.bytes_per_op", float64(b.mem.TotalAlloc-a.mem.TotalAlloc), float64(t.ops), t.ops)
	return vs
}

// printMetrics writes one "name value unit n=<samples>" line per metric.
func printMetrics(w io.Writer, workload string, defs []metricDef, vs values) {
	for _, d := range defs {
		if v, ok := vs[d.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", workload, d.name, v.v, d.unit, v.n)
		} else {
			fmt.Fprintf(w, "%s %s absent %s n=0\n", workload, d.name, d.unit)
		}
	}
}

// printAccounting shows, per op class, where the traced median goes: each
// layer's median self time per op, their sum, and the traced median.
func (r *run) printAccounting(w io.Writer) {
	f := r.folded()
	for cl := opClass(0); cl < numClasses; cl++ {
		self, total, ok := f.accounting(cl)
		if !ok {
			continue
		}
		var parts []string
		sum := 0.0
		for l, v := range self {
			if v > 0 {
				parts = append(parts, fmt.Sprintf("%s=%.0f", layerNames[l], v))
				sum += v
			}
		}
		fmt.Fprintf(w, "# %s %s traced p50 %.0f ns = self-time p50s %s (sum %.0f ns, %.0f %%)\n",
			r.wl.name, classNames[cl], total, strings.Join(parts, " + "), sum, 100*sum/total)
	}
}

// printLadder shows each rung with its step over the rung below.
func printLadder(w io.Writer, ladder []rungResult) {
	by := map[string]rungResult{}
	for _, rg := range ladder {
		by[rg.name] = rg
	}
	for _, rg := range ladder {
		delta := ""
		if b, ok := by[rg.below]; ok {
			delta = fmt.Sprintf("  (%+.1f ns, %+.2f allocs over %s)", rg.ns-b.ns, rg.allocs-b.allocs, rg.below)
		}
		fmt.Fprintf(w, "# ladder %-20s %9.1f ns/op %6.2f allocs/op%s\n", rg.name, rg.ns, rg.allocs, delta)
	}
}
