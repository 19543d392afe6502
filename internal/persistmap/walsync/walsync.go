// Package walsync is the group-commit daemon under persistmap's
// write-ahead log: a single goroutine that drains an append queue of
// opaque, already-framed records into segment files, batches every record
// that arrived while the previous fsync was in flight into ONE fsync, and
// acknowledges each committer only once its record is durable. That
// batching is the whole point — with N goroutines committing
// concurrently, the fsync cost is paid once per batch instead of once per
// commit, which is what makes always-on durability affordable.
//
// The daemon is deliberately format-agnostic: persistmap owns the record
// framing and the per-segment header bytes; walsync owns files, batching,
// fsync, acknowledgement and segment rolling. Segments are named
// wal-<seq>.wal with the sequence hex-padded so lexical order is append
// order; a restarted daemon never appends to an existing segment — it
// starts a fresh one after the highest sequence on disk, leaving crashed
// tails untouched for recovery to read.
package walsync

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faultfs"
)

// Ext is the segment file extension. persistmap's checkpoint chain uses
// .pmb in the same directory; the distinct extension keeps each scanner
// blind to the other's files.
const Ext = ".wal"

// ErrClosed is returned on appends to (and pending acks of) a daemon that
// has shut down — including a crash injected by the BeforeSync test hook,
// whose unsynced records are gone and must not be acknowledged.
var ErrClosed = errors.New("walsync: daemon closed")

// ErrDurabilityLost marks a poisoned daemon: a write or fsync on the open
// segment failed, so the segment's tail is in an unknown state and no
// further record can ever be promised durable through it. The failed
// batch, everything queued behind it, and every later Append all fail
// with an error wrapping both this sentinel and the root cause.
//
// The one thing a poisoned daemon must NEVER do is retry the fsync and
// ack on success: after a failed fsync the kernel may have dropped the
// dirty pages, so the retry "succeeds" over data that no longer exists
// (the fsyncgate failure mode). Recovery is a process-level decision —
// keep serving non-durably (detach the WAL) or stop — made explicitly by
// the owner, typically from the OnDurabilityLost callback.
var ErrDurabilityLost = errors.New("walsync: durability lost")

// Config parameterizes a daemon.
type Config struct {
	// Dir is the segment directory (created if needed).
	Dir string
	// Header is written verbatim at the head of every new segment; the
	// format above it belongs to the caller.
	Header []byte
	// SegmentBytes is the roll threshold: after a sync that leaves the
	// open segment at or beyond it, the segment is sealed and a new one
	// started. <= 0 means the default (4 MiB).
	SegmentBytes int64
	// MaxBatch caps how many queued records one fsync covers; 0 is
	// unbounded (drain everything queued). The bench sweeps this knob.
	MaxBatch int
	// BeforeSync, when set, runs after a batch's bytes are written but
	// BEFORE their fsync; returning true injects a crash: the open
	// segment is truncated back to its synced prefix (the page-cache
	// bytes a real kill would lose), every unacked committer gets
	// ErrClosed, and the daemon shuts down. Test and storm hook; nil in
	// production.
	BeforeSync func(records int) bool
	// FS is the filesystem the daemon writes through; nil means the real
	// disk (faultfs.OS). Fault-injection harnesses substitute a
	// faultfs.FaultFS here.
	FS faultfs.FS
	// OnDurabilityLost, when set, is called exactly once — from the
	// daemon goroutine — when the daemon poisons itself after a failed
	// write or fsync (see ErrDurabilityLost). The owner decides there
	// whether to degrade to non-durable serving or stop.
	OnDurabilityLost func(error)
}

// defaultSegmentBytes is the roll threshold when Config leaves it unset.
const defaultSegmentBytes = 4 << 20

// Stats is a snapshot of the daemon's group-commit counters.
type Stats struct {
	// Records is how many records were durably synced; Batches how many
	// fsyncs covered them. Records/Batches is the achieved group size.
	Records, Batches uint64
	// MaxBatch is the largest single batch synced.
	MaxBatch int
	// Segments is how many segments the daemon has opened (sealed + open).
	Segments int
	// Bytes counts record bytes written (headers excluded).
	Bytes int64
}

// pending is one queued record with its acknowledgement channel.
type pending struct {
	rec []byte
	ack chan error
}

// Daemon is the group-commit goroutine plus its queue. Append may be
// called from any number of goroutines; Close waits for the queue to
// drain.
type Daemon struct {
	cfg Config

	mu      sync.Mutex
	queue   []pending
	closing bool
	closed  bool
	stats   Stats
	seq     uint64 // open segment's sequence
	poison  error  // set once when durability is lost; sticky

	wake chan struct{}
	done chan struct{}

	// Loop-goroutine state: the open segment file, its total and synced
	// sizes. Only the loop touches these after Start.
	f          faultfs.File
	size       int64
	syncedSize int64

	finalErr error
}

// SegmentPath returns the canonical path of segment seq under dir.
func SegmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x%s", seq, Ext))
}

// Segment identifies one on-disk segment file.
type Segment struct {
	Seq  uint64
	Path string
}

// ScanSegments lists the directory's WAL segments in sequence order.
// Files with the extension but an unparsable name are an error — a WAL
// directory is append-only machinery, not a dumping ground.
func ScanSegments(dir string) ([]Segment, error) {
	return ScanSegmentsFS(faultfs.OS, dir)
}

// ScanSegmentsFS is ScanSegments through an explicit filesystem.
func ScanSegmentsFS(fsys faultfs.FS, dir string) ([]Segment, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("walsync: %w", err)
	}
	var segs []Segment
	for _, name := range names {
		if !strings.HasSuffix(name, Ext) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "wal-%016x"+Ext, &seq); err != nil {
			return nil, fmt.Errorf("walsync: unrecognized segment name %q", name)
		}
		segs = append(segs, Segment{Seq: seq, Path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// Start opens a fresh segment after the highest sequence already in Dir
// and launches the group-commit goroutine. Existing segments are never
// appended to: a crashed tail stays exactly as the crash left it.
func Start(cfg Config) (*Daemon, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegmentBytes
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("walsync: %w", err)
	}
	segs, err := ScanSegmentsFS(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	seq := uint64(1)
	if n := len(segs); n > 0 {
		seq = segs[n-1].Seq + 1
	}
	d := &Daemon{cfg: cfg, seq: seq, wake: make(chan struct{}, 1), done: make(chan struct{})}
	if err := d.openSegment(seq); err != nil {
		return nil, err
	}
	go d.loop()
	return d, nil
}

// openSegment creates segment seq, writes and fsyncs the caller's header,
// and fsyncs the directory so the new entry survives a crash.
func (d *Daemon) openSegment(seq uint64) error {
	path := SegmentPath(d.cfg.Dir, seq)
	f, err := d.cfg.FS.Create(path, true)
	if err != nil {
		return fmt.Errorf("walsync: %w", err)
	}
	if len(d.cfg.Header) > 0 {
		if _, err := f.Write(d.cfg.Header); err != nil {
			f.Close()
			return fmt.Errorf("walsync: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("walsync: %w", err)
	}
	if err := d.cfg.FS.SyncDir(d.cfg.Dir); err != nil {
		f.Close()
		return fmt.Errorf("walsync: sync %s: %w", d.cfg.Dir, err)
	}
	d.f = f
	d.size = int64(len(d.cfg.Header))
	d.syncedSize = d.size
	d.mu.Lock()
	d.seq = seq
	d.stats.Segments++
	d.mu.Unlock()
	return nil
}

// Append enqueues one framed record and returns the channel its
// durability verdict arrives on: nil once the record is fsynced, an error
// if it never will be. The channel is buffered — a caller that does not
// care (buffered, non-durable mode) may simply drop it.
func (d *Daemon) Append(rec []byte) <-chan error {
	ack := make(chan error, 1)
	d.mu.Lock()
	if d.closing || d.closed {
		err := d.poison
		d.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		ack <- err
		return ack
	}
	d.queue = append(d.queue, pending{rec: rec, ack: ack})
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
	return ack
}

// CurrentSeq returns the open segment's sequence. Sealed segments (every
// sequence below it) are safe to prune once a checkpoint covers them.
func (d *Daemon) CurrentSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Stats returns a snapshot of the group-commit counters.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Err reports the daemon's poison state: nil while healthy (or after a
// clean close), or the ErrDurabilityLost-wrapping error once a write or
// fsync failure has poisoned it.
func (d *Daemon) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.poison
}

// Close drains the queue, fsyncs and closes the open segment, and stops
// the daemon. Appends racing with Close get ErrClosed.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closing || d.closed {
		d.mu.Unlock()
		<-d.done
		return d.finalErr
	}
	d.closing = true
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
	<-d.done
	return d.finalErr
}

// loop is the group-commit goroutine: drain a batch, write it, (crash
// hook), fsync once, roll if the segment is full, ack everyone in it.
// Rolling before the ack means a committer that has its ack also sees
// CurrentSeq past every full segment its record could be in, so a TrimTo
// it issues next is not racing the seal.
func (d *Daemon) loop() {
	defer close(d.done)
	for {
		d.mu.Lock()
		if len(d.queue) == 0 {
			if d.closing {
				d.closed = true
				d.mu.Unlock()
				d.finalErr = d.shutdown(nil)
				return
			}
			d.mu.Unlock()
			<-d.wake
			continue
		}
		n := len(d.queue)
		if d.cfg.MaxBatch > 0 && n > d.cfg.MaxBatch {
			n = d.cfg.MaxBatch
		}
		batch := make([]pending, n)
		copy(batch, d.queue)
		rest := d.queue[n:]
		d.queue = append(d.queue[:0:0], rest...)
		d.mu.Unlock()

		var werr error
		for _, p := range batch {
			if werr == nil {
				var wn int
				wn, werr = d.f.Write(p.rec)
				d.size += int64(wn)
			}
		}
		if werr == nil && d.cfg.BeforeSync != nil && d.cfg.BeforeSync(len(batch)) {
			// Injected mid-batch kill: the batch's bytes reached the page
			// cache but not the platter. Truncating back to the synced
			// prefix is exactly what the machine losing power would do to
			// them; the committers parked on these acks must see failure,
			// not silence.
			d.crash(batch)
			return
		}
		if werr == nil {
			werr = d.f.Sync()
		}
		if werr != nil {
			// A write or fsync failure leaves the segment's tail in an
			// unknown state — after a failed fsync the kernel may already
			// have dropped the dirty pages, so retrying the fsync and
			// acking on "success" would claim durability for lost bytes
			// (fsyncgate). The only sound move is to poison: fail this
			// batch and everything after it, permanently.
			d.poisonAll(batch, werr)
			return
		}
		d.syncedSize = d.size
		d.mu.Lock()
		d.stats.Batches++
		d.stats.Records += uint64(len(batch))
		if len(batch) > d.stats.MaxBatch {
			d.stats.MaxBatch = len(batch)
		}
		for _, p := range batch {
			d.stats.Bytes += int64(len(p.rec))
		}
		seq := d.seq
		d.mu.Unlock()
		var rerr error
		if d.size >= d.cfg.SegmentBytes {
			rerr = d.roll(seq)
		}
		for _, p := range batch {
			p.ack <- nil // synced above, whatever became of the roll
		}
		if rerr != nil {
			// No further record can ever be made durable: poison.
			d.poisonAll(nil, rerr)
			return
		}
	}
}

// roll seals the open segment (its bytes are already synced) and opens
// the next one.
func (d *Daemon) roll(seq uint64) error {
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("walsync: %w", err)
	}
	return d.openSegment(seq + 1)
}

// shutdown finishes a clean close: the queue is empty, the segment
// synced.
func (d *Daemon) shutdown(err error) error {
	if serr := d.f.Sync(); err == nil && serr != nil {
		err = fmt.Errorf("walsync: %w", serr)
	}
	if cerr := d.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("walsync: %w", cerr)
	}
	return err
}

// crash implements the injected kill: revert the open segment to its
// synced prefix, fail the in-flight batch and everything still queued,
// and stop.
func (d *Daemon) crash(batch []pending) {
	d.f.Truncate(d.syncedSize)
	d.f.Sync()
	d.f.Close()
	d.size = d.syncedSize
	d.mu.Lock()
	d.closed = true
	q := d.queue
	d.queue = nil
	d.mu.Unlock()
	for _, p := range batch {
		p.ack <- ErrClosed
	}
	for _, p := range q {
		p.ack <- ErrClosed
	}
	d.finalErr = ErrClosed
}

// poisonAll marks the daemon permanently poisoned with cause, reports the
// wrapped error to the failed batch, everything queued, and Close, and
// notifies OnDurabilityLost. The open segment is closed WITHOUT a retry
// fsync — its tail stays whatever the kernel left.
func (d *Daemon) poisonAll(batch []pending, cause error) {
	err := fmt.Errorf("%w: %w", ErrDurabilityLost, cause)
	d.mu.Lock()
	d.closed = true
	d.poison = err
	q := d.queue
	d.queue = nil
	d.mu.Unlock()
	for _, p := range batch {
		p.ack <- err
	}
	for _, p := range q {
		p.ack <- err
	}
	d.f.Close()
	d.finalErr = err
	if d.cfg.OnDurabilityLost != nil {
		d.cfg.OnDurabilityLost(err)
	}
}
