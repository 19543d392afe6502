// Package walsync is the group-commit daemon under persistmap's
// write-ahead log: a single goroutine that drains a staging buffer of
// opaque, already-framed records into segment files, batches every record
// that arrived while the previous fsync was in flight into ONE write and
// ONE fsync, and acknowledges each committer only once its record is
// durable. That batching is the whole point — with N goroutines committing
// concurrently, the fsync cost is paid once per batch instead of once per
// commit, which is what makes always-on durability affordable.
//
// Append copies a record into the staging buffer and returns its sequence
// number, a ticket; Wait redeems the ticket once the durable prefix covers
// it. The daemon keeps two staging buffers and swaps them per batch, so a
// warm append and its wait allocate nothing: committers keep filling one
// buffer while the daemon writes the other.
//
// The staging buffer is bounded by its committers, not by a cap. A durable
// committer blocks in Wait until its record is synced, so the buffer holds
// at most one record per committer parked there — N concurrent durable
// committers stage at most N records between two fsyncs, whatever the
// disk's speed. Only non-durable appenders, who never wait, can outrun the
// disk; for them the buffer grows with the backlog (bounded by the
// appenders' own rate), and the daemon drops a swapped-out buffer past 1
// MiB instead of keeping its capacity.
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

// Ext is the segment file extension. persistmap's full checkpoints use
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
// batch, everything staged behind it, and every later Append all fail
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
	// MaxBatch caps how many staged records one fsync covers; 0 is
	// unbounded (drain everything staged).
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

// maxSpareBytes is the largest staging buffer the daemon keeps for reuse
// after writing it out.
const maxSpareBytes = 1 << 20

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

// Daemon is the group-commit goroutine plus its staging buffer. Append and
// Wait may be called from any number of goroutines; Close waits for the
// staged records to drain.
type Daemon struct {
	cfg Config

	mu sync.Mutex
	// work wakes the loop when a record is staged or Close is called;
	// durable wakes the waiters when the synced prefix grows or the
	// daemon stops. Both are conditions on mu.
	work, durable sync.Cond
	// stage holds the records appended since the loop last took a batch,
	// back to back; ends[i] is the end offset of record i in stage.
	stage []byte
	ends  []int
	// appended is the sequence number of the newest staged record, synced
	// that of the newest durable one: records are numbered from 1 in
	// append order, and every record up to synced is on disk.
	appended, synced uint64
	// failed, once set, is the verdict of every record past synced: the
	// daemon has stopped (clean close or injected crash: ErrClosed; a
	// failed write, fsync or roll: the poison).
	failed  error
	closing bool
	stats   Stats
	seq     uint64 // open segment's sequence
	poison  error  // set once when durability is lost; sticky

	done chan struct{}

	// Loop-goroutine state: the open segment file, its total and synced
	// sizes, and the staging buffers swapped out at the last batch. Only
	// the loop touches these after Start.
	f          faultfs.File
	size       int64
	syncedSize int64
	spare      []byte
	spareEnds  []int

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
	d := &Daemon{cfg: cfg, seq: seq, done: make(chan struct{})}
	d.work.L = &d.mu
	d.durable.L = &d.mu
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

// Append stages a copy of one framed record — the caller may reuse rec as
// soon as Append returns — and returns its ticket for Wait. A daemon that
// is closing or stopped stages nothing; the ticket it returns makes Wait
// report why.
func (d *Daemon) Append(rec []byte) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closing || d.failed != nil {
		return d.appended + 1
	}
	d.stage = append(d.stage, rec...)
	d.ends = append(d.ends, len(d.stage))
	d.appended++
	d.work.Signal()
	return d.appended
}

// Wait blocks until the record behind ticket is durable and returns its
// verdict: nil once it is fsynced, ErrClosed or the poison (wrapping
// ErrDurabilityLost) if it never will be. Ticket 0 names no record and
// returns nil at once.
func (d *Daemon) Wait(ticket uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		switch {
		case ticket <= d.synced:
			return nil
		case d.failed != nil:
			return d.failed
		case ticket > d.appended:
			return ErrClosed // refused by a closing daemon
		}
		d.durable.Wait()
	}
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

// Close drains the staged records, fsyncs and closes the open segment, and
// stops the daemon. Appends racing with Close get ErrClosed.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.closing = true
	d.work.Signal()
	d.mu.Unlock()
	<-d.done
	return d.finalErr
}

// loop is the group-commit goroutine: take everything staged, swapping in
// the spare buffers for the appenders, and flush it.
func (d *Daemon) loop() {
	defer close(d.done)
	for {
		d.mu.Lock()
		for len(d.ends) == 0 && !d.closing {
			d.work.Wait()
		}
		if len(d.ends) == 0 {
			d.mu.Unlock()
			d.finalErr = d.shutdown()
			d.stop(ErrClosed)
			return
		}
		buf, ends := d.stage, d.ends
		d.stage, d.ends = d.spare[:0], d.spareEnds[:0]
		first := d.appended - uint64(len(ends)) + 1
		d.mu.Unlock()

		if !d.flush(buf, ends, first) {
			return
		}
		if cap(buf) > maxSpareBytes {
			buf, ends = nil, nil
		}
		d.spare, d.spareEnds = buf, ends
	}
}

// flush makes the taken records durable — buf holds them back to back,
// ends their end offsets, first the ticket of the first — in batches of at
// most MaxBatch: one write, (crash hook), one fsync, a roll if the segment
// is full, then the synced prefix grows and the batch's waiters wake.
// Rolling before the wake means a committer that has its ack also sees
// CurrentSeq past every full segment its record could be in, so a TrimTo
// it issues next is not racing the seal. flush reports false once the
// daemon has stopped.
func (d *Daemon) flush(buf []byte, ends []int, first uint64) bool {
	start := 0
	for i := 0; i < len(ends); {
		n := len(ends) - i
		if d.cfg.MaxBatch > 0 && n > d.cfg.MaxBatch {
			n = d.cfg.MaxBatch
		}
		end := ends[i+n-1]
		wn, err := d.f.Write(buf[start:end])
		d.size += int64(wn)
		if err == nil && d.cfg.BeforeSync != nil && d.cfg.BeforeSync(n) {
			// Injected mid-batch kill: the batch's bytes reached the page
			// cache but not the platter. Truncating back to the synced
			// prefix is exactly what the machine losing power would do to
			// them; the committers waiting on these records must see
			// failure, not silence.
			d.crash()
			return false
		}
		if err == nil {
			err = d.f.Sync()
		}
		if err != nil {
			// A write or fsync failure leaves the segment's tail in an
			// unknown state — after a failed fsync the kernel may already
			// have dropped the dirty pages, so retrying the fsync and
			// acking on "success" would claim durability for lost bytes
			// (fsyncgate). The only sound move is to poison: fail this
			// batch and everything after it, permanently.
			d.poisonAll(err)
			return false
		}
		d.syncedSize = d.size
		var rerr error
		if d.size >= d.cfg.SegmentBytes {
			rerr = d.roll()
		}
		d.mu.Lock()
		d.stats.Batches++
		d.stats.Records += uint64(n)
		d.stats.MaxBatch = max(d.stats.MaxBatch, n)
		d.stats.Bytes += int64(end - start)
		d.synced = first + uint64(i+n) - 1 // synced above, whatever became of the roll
		d.durable.Broadcast()
		d.mu.Unlock()
		if rerr != nil {
			// No further record can ever be made durable: poison.
			d.poisonAll(rerr)
			return false
		}
		i += n
		start = end
	}
	return true
}

// roll seals the open segment (its bytes are already synced) and opens
// the next one.
func (d *Daemon) roll() error {
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("walsync: %w", err)
	}
	return d.openSegment(d.seq + 1)
}

// stop ends the daemon's life under err: every record past the synced
// prefix — the unsynced batch and everything still staged — fails with it,
// and so does every later Append.
func (d *Daemon) stop(err error) {
	d.mu.Lock()
	d.failed = err
	d.stage, d.ends = nil, nil
	d.durable.Broadcast()
	d.mu.Unlock()
}

// shutdown finishes a clean close: nothing is staged, the segment synced.
func (d *Daemon) shutdown() error {
	var err error
	if serr := d.f.Sync(); serr != nil {
		err = fmt.Errorf("walsync: %w", serr)
	}
	if cerr := d.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("walsync: %w", cerr)
	}
	return err
}

// crash implements the injected kill: revert the open segment to its
// synced prefix, fail the in-flight batch and everything still staged,
// and stop.
func (d *Daemon) crash() {
	d.f.Truncate(d.syncedSize)
	d.f.Sync()
	d.f.Close()
	d.size = d.syncedSize
	d.finalErr = ErrClosed
	d.stop(ErrClosed)
}

// poisonAll marks the daemon permanently poisoned with cause, fails the
// unsynced batch, everything staged, every later Append and Close with the
// wrapped error, and notifies OnDurabilityLost. The open segment is closed
// WITHOUT a retry fsync — its tail stays whatever the kernel left.
func (d *Daemon) poisonAll(cause error) {
	err := fmt.Errorf("%w: %w", ErrDurabilityLost, cause)
	d.mu.Lock()
	d.poison = err
	d.mu.Unlock()
	d.stop(err)
	d.f.Close()
	d.finalErr = err
	if d.cfg.OnDurabilityLost != nil {
		d.cfg.OnDurabilityLost(err)
	}
}
