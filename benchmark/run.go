package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persistmap/walsync"
)

// workload is one traffic mix over one store shape.
type workload struct {
	name     string
	mix      [numClasses]int // percent get, put, scan, txn
	cacheCap int             // per shard; a shard holds numKeys/numShards keys
	durable  bool            // per-shard durable WAL on memFS, plus the checkpointer
	deposit  bool            // put is a read-modify-write +1 and values are balances
}

const shardKeys = numKeys / numShards

var workloads = []workload{
	{name: "read-hot", mix: [numClasses]int{93, 5, 2, 0}, cacheCap: 2 * shardKeys},
	{name: "churn-miss", mix: [numClasses]int{93, 5, 2, 0}, cacheCap: shardKeys / 8},
	{name: "xshard-txn", mix: [numClasses]int{48, 25, 2, 25}, cacheCap: 2 * shardKeys, deposit: true},
	{name: "durable-ckpt", mix: [numClasses]int{49, 49, 2, 0}, cacheCap: 2 * shardKeys, durable: true},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// plan is how long each part of a run lasts.
type plan struct {
	seed    int64
	setups  int           // stores built and timed; the last one is used
	warm    time.Duration // untimed, fills caches
	measure time.Duration // tracing off: the end-to-end numbers
	traced  time.Duration // tracing on: the per-layer numbers; 0 for none
	out     string        // directory for trace and goroutine dumps
}

const (
	sliceLen     = time.Second            // a window is cut into slices of about this length
	ckptEvery    = 250 * time.Millisecond // the checkpointer moves to the next shard this often
	recoverPuts  = 5_000                  // durable puts per shard between the last checkpoint and the crash
	watchdogMult = 3                      // a run may take this many times its nominal length
	auditFloor   = 2 * time.Minute        // but the audit gets at least this long (a short test run under -race needs one)
)

// snapshot is every cumulative counter the layers expose, read at a
// window boundary; metrics are differences of two snapshots.
type snapshot struct {
	tm                          [numShards]core.Stats
	hits, misses, evict, demote int64
	stripeHits                  []int64
	wal                         walsync.Stats
	fsWrites, fsBytes, fsSyncs  int64
	mem                         runtime.MemStats
}

func (s *store) snapshot() *snapshot {
	sn := new(snapshot)
	for i := 0; i < numShards; i++ {
		sn.tm[i] = s.p.TM(i).Stats()
		c := s.caches[i]
		for j := 0; j < c.Stripes(); j++ {
			st := c.StripeStats(j)
			sn.hits += st.Hits
			sn.misses += st.Misses
			sn.evict += st.Evictions
			sn.demote += st.Demotions
			sn.stripeHits = append(sn.stripeHits, st.Hits)
		}
	}
	for _, w := range s.wals {
		st := w.Stats()
		sn.wal.Records += st.Records
		sn.wal.Batches += st.Batches
		sn.wal.Bytes += st.Bytes
		sn.wal.Segments += st.Segments
		sn.wal.MaxBatch = max(sn.wal.MaxBatch, st.MaxBatch)
	}
	if s.fs != nil {
		sn.fsWrites, sn.fsBytes, sn.fsSyncs = s.fs.writes.Load(), s.fs.writeBytes.Load(), s.fs.syncs.Load()
	}
	runtime.ReadMemStats(&sn.mem)
	return sn
}

// ckpt is one checkpoint the checkpointer took.
type ckpt struct {
	at            int64 // now() when the pin was taken
	ms, holdMs    float64
	bytes, keys   int64
	trimmed       int
	shard         int
	err           error
	supersededErr error
}

// run is one workload run in progress.
type run struct {
	wl      *workload
	pl      plan
	s       *store
	clients []*client
	ph      atomic.Pointer[phase]

	ckptMu   sync.Mutex
	ckpts    []ckpt
	lastFull [numShards]string

	setupS             []float64
	snaps              [4]*snapshot // measure start/end, traced start/end
	measureAt, traceAt [2]int64
	hung               int // clients still inside an op when the watchdog fired
	heapLiveMB         float64
	notes              []string // failed checks
	rec                recovery
}

func (r *run) fail(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// numClients is C = min(nproc, 4): the closed loop's client count and the
// GOMAXPROCS the run sets.
func numClients() int { return min(runtime.NumCPU(), 4) }

// sliceCount is how many slices a window of length d is cut into.
func sliceCount(d time.Duration) int { return max(1, int(d/sliceLen)) }

func newWindow(d time.Duration) *window {
	return &window{lat: make([][numClasses]hist, sliceCount(d))}
}

func (r *run) setPhase(kind int, d time.Duration) {
	n := sliceCount(d)
	r.ph.Store(&phase{kind: kind, start: now(), sliceNs: max(1, int64(d)/int64(n)), slices: n})
}

// checkpoint takes one full checkpoint of shard i the way an operator's
// loop would: pin, copy at the pin, write, trim the log, release.
func (r *run) checkpoint(i int) {
	s := r.s
	c := ckpt{at: now(), shard: i}
	pin, err := s.p.TM(i).PinSnapshot()
	if err != nil {
		c.err = err
	} else {
		s.pinHeld[i].Store(true)
		b, err := s.maps[i].BackupAt(pin)
		var path string
		if err == nil {
			path, err = s.stores[i].WriteFull(b)
		}
		if err == nil {
			c.trimmed, err = s.wals[i].TrimTo(b.Version)
			c.keys = int64(b.Len())
			c.bytes = s.fs.size(path)
		}
		s.pinHeld[i].Store(false)
		pin.Release()
		c.holdMs = float64(now()-c.at) / 1e6
		c.err = err
		// The previous full is now redundant; without this the directory,
		// and with it recovery's scan, would grow with the window.
		if prev := r.lastFull[i]; err == nil && prev != "" && prev != path {
			if c.supersededErr = s.fs.Remove(prev); c.supersededErr == nil {
				c.supersededErr = s.fs.SyncDir(shardDir(i))
			}
		}
		if err == nil {
			r.lastFull[i] = path
		}
	}
	c.ms = float64(now()-c.at) / 1e6
	r.ckptMu.Lock()
	r.ckpts = append(r.ckpts, c)
	r.ckptMu.Unlock()
}

func (r *run) checkpointer(stop <-chan struct{}) {
	t := time.NewTicker(ckptEvery)
	defer t.Stop()
	for i := 0; ; i = (i + 1) % numShards {
		select {
		case <-stop:
			return
		case <-t.C:
			r.checkpoint(i)
		}
	}
}

// traceAcks re-installs each shard's durable-ack barrier with a span
// around the WAL's Ack. The barrier runs on the committing client's own
// goroutine; the client is found by the transaction id it published from
// inside its closure.
func (r *run) traceAcks() {
	for i, w := range r.s.wals {
		r.s.p.TM(i).SetDurableAck(func(tx *core.Tx) error {
			key := ackKey(i, tx)
			for _, c := range r.clients {
				if c.ackKey.Load() == key {
					sp := c.tr.begin(lAckWait)
					err := w.Ack(tx)
					c.tr.end(sp)
					return err
				}
			}
			return w.Ack(tx)
		})
	}
}

// ackKey identifies a transaction of one shard; it is never 0.
func ackKey(shard int, tx *core.Tx) uint64 { return tx.ID()<<3 | uint64(shard)<<1 | 1 }

// waitTimeout waits for done, at most d.
func waitTimeout(done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

func (r *run) dumpGoroutines(why string) {
	path := filepath.Join(r.pl.out, "goroutines-"+r.wl.name+".txt")
	if err := os.MkdirAll(r.pl.out, 0o755); err == nil {
		if f, err := os.Create(path); err == nil {
			pprof.Lookup("goroutine").WriteTo(f, 2)
			f.Close()
		}
	}
	r.fail("watchdog: %s; goroutines dumped to %s", why, path)
}

// runWorkload sets the store up, drives it through warm-up, the measured
// window and the traced window, quiesces, and audits the outputs. It
// always returns within watchdogMult times the nominal length.
func runWorkload(wl *workload, pl plan) *run {
	r := newRun(wl, pl)
	if r.s != nil {
		r.drive()
	}
	return r
}

// newRun builds the store pl.setups times, timing each, and makes the
// clients of the last one. On a set-up failure r.s is nil.
func newRun(wl *workload, pl plan) *run {
	r := &run{wl: wl, pl: pl}
	for i := 0; i < pl.setups; i++ {
		if r.s != nil {
			r.s.close()
		}
		t0 := now()
		s, err := buildStore(wl.cacheCap, wl.durable, wl.deposit)
		r.setupS = append(r.setupS, float64(now()-t0)/1e9)
		if r.s = s; err != nil {
			r.fail("set-up: %v", err)
			return r
		}
	}
	n := numClients()
	if wl.durable {
		n = max(1, n-1) // the checkpointer takes the last core
	}
	for i := 0; i < n; i++ {
		c := newClient(i, r.s, wl, pl.seed, &r.ph)
		c.win[0] = newWindow(pl.measure)
		if pl.traced > 0 {
			c.win[1] = newWindow(pl.traced)
			c.tr = newTracer(sampleCap / n)
		}
		r.clients = append(r.clients, c)
	}
	if pl.traced > 0 && wl.durable {
		r.traceAcks()
	}
	return r
}

// drive runs the phases, then quiesces and audits.
func (r *run) drive() {
	wl, pl := r.wl, r.pl
	nominal := pl.warm + pl.measure + pl.traced
	r.setPhase(phaseWarm, pl.warm)
	var exited atomic.Int32
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run()
			exited.Add(1)
		}()
	}
	stopCkpt := make(chan struct{})
	if wl.durable {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.checkpointer(stopCkpt)
		}()
	}
	time.Sleep(pl.warm)
	r.snaps[0] = r.s.snapshot()
	r.setPhase(phaseMeasure, pl.measure)
	time.Sleep(pl.measure)
	r.snaps[1] = r.s.snapshot()
	if pl.traced > 0 {
		r.snaps[2] = r.snaps[1]
		r.setPhase(phaseTraced, pl.traced)
		r.traceAt[0] = now()
		time.Sleep(pl.traced)
		r.traceAt[1] = now()
		r.snaps[3] = r.s.snapshot()
	}
	r.ph.Store(&phase{kind: phaseStop})
	close(stopCkpt)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if !waitTimeout(done, (watchdogMult-1)*nominal+time.Second) {
		r.hung = len(r.clients) - int(exited.Load())
		r.dumpGoroutines(fmt.Sprintf("%d clients still inside an op after the run ended", r.hung))
		return
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLiveMB = float64(ms.HeapAlloc) / (1 << 20)

	audited := make(chan struct{})
	go func() {
		defer close(audited)
		r.audit()
		if wl.durable {
			r.crashAndRecover()
		}
	}()
	if !waitTimeout(audited, max(watchdogMult*nominal, auditFloor)) {
		r.dumpGoroutines("the end-of-run audit did not finish")
		return
	}
	if err := r.s.close(); err != nil {
		r.fail("closing the WALs: %v", err)
	}
	if pl.traced > 0 {
		path := filepath.Join(pl.out, "trace-"+wl.name+".json")
		err := os.MkdirAll(pl.out, 0o755)
		if err == nil {
			err = writeTrace(path, wl.name, r.clients)
		}
		if err != nil {
			r.fail("writing %s: %v", path, err)
		}
	}
}

// ckptsIn returns the checkpoints whose pin was taken in [from, to).
func (r *run) ckptsIn(from, to int64) []ckpt {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	var out []ckpt
	for _, c := range r.ckpts {
		if c.at >= from && c.at < to {
			out = append(out, c)
		}
	}
	return out
}
