package persistmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persistmap/walsync"
)

// This file is the write-ahead half of always-on durability: where full
// checkpoints (store.go) make PERIODIC cuts durable, the WAL makes every
// COMMIT durable. A Map with a WAL attached encodes each put and
// delete straight into the transaction handle's redo log for the WAL
// (core.Tx.Redo) — the record's frame, with its version and count fields
// reserved. Only a commit hands the log over (WAL.CommitRedo): the frame
// is stamped with Tx.CommitVersion, sealed with its CRC and copied into
// the walsync group-commit daemon, which batches concurrent committers
// into a single fsync; the daemon's ticket stays in the handle, and the
// TM's durable-ack barrier (WAL.Ack) redeems it. An aborted attempt's log
// is simply emptied with the handle's other per-attempt state. Recovery
// (Store.Replay) loads the newest full checkpoint and re-applies the WAL
// tail in commit-version order through the chunked live-apply path
// (Map.applyOps).
//
// Segment layout (all integers little-endian):
//
//	header  magic    [8]byte  "reprowal"
//	        format   uint16   currently 1
//	        codec    uint8 n, [n]byte   the value codec's Name
//	        crc      uint32   IEEE CRC32 over the header bytes above
//	records each:
//	        version  uint64   the commit version of the write set
//	        count    uint32   operations in the record
//	        ops      count × { op uint8 (1 put, 2 delete), key int64,
//	                           put: len uint32, value [len]byte }
//	        crc      uint32   IEEE CRC32 over the record bytes above
//
// Every record carries its own CRC so a torn tail — the bytes a crash
// lost from the page cache — is detected at the exact record boundary:
// replay applies the intact prefix and stops, never a byte past a bad
// record. A record's commit versions are NOT monotone in file order (a
// descheduled committer can enqueue after a younger one), so replay
// sorts; conflicting writers serialize through cell locks, which makes
// version order the correct redo order per key.

const (
	walMagic  = "reprowal"
	walFormat = uint16(1)

	walOpPut    = uint8(1)
	walOpDelete = uint8(2)

	// walRecordHead is the version and count fields in front of a
	// record's ops; logOp reserves it, CommitRedo fills it in.
	walRecordHead = 8 + 4
)

// ErrTornTail marks WAL damage whose shape is a TRUNCATION — the parse
// ran off the end of the file mid-record, exactly what a power cut does
// to unsynced page-cache bytes. It always wraps ErrCorrupt too (a torn
// file IS damaged), so errors.Is(err, ErrCorrupt) keeps matching; the
// finer class lets recovery and tooling tell the legal crash shape from
// a bit flip inside fully-present bytes (checksum mismatch, bad op),
// which is never legal and fails replay loudly.
var ErrTornTail = errors.New("persistmap: torn segment tail")

// DamageKind classifies what a tolerant WAL-segment read found.
type DamageKind uint8

const (
	// DamageNone: the segment parsed to a clean end of file.
	DamageNone DamageKind = iota
	// DamageTorn: an intact prefix, then a record cut off by the end of
	// the file — the legal residue of a crash or poisoned daemon.
	DamageTorn
	// DamageCorrupt: full-length bytes that fail their checksum or
	// structure — never a legal crash shape.
	DamageCorrupt
)

// String names the damage for tooling output.
func (d DamageKind) String() string {
	switch d {
	case DamageNone:
		return "sealed"
	case DamageTorn:
		return "torn"
	default:
		return "corrupt"
	}
}

// classifyDamage maps a tolerant read's parse error to its kind.
func classifyDamage(err error) DamageKind {
	if err == nil {
		return DamageNone
	}
	if errors.Is(err, ErrTornTail) {
		return DamageTorn
	}
	return DamageCorrupt
}

// WALOptions parameterizes OpenWAL.
type WALOptions struct {
	// SegmentBytes is the segment roll threshold (walsync's default when
	// zero).
	SegmentBytes int64
	// MaxBatch caps records per fsync; 0 drains everything staged. Set
	// only by tests that need a bounded batch.
	MaxBatch int
	// BeforeSync is walsync's crash-injection hook (nil in production).
	BeforeSync func(records int) bool
	// OnDurabilityLost, when set, fires exactly once if the daemon
	// poisons itself after a failed segment write or fsync (see
	// walsync.ErrDurabilityLost): the place to decide whether to degrade
	// to non-durable serving (Map.DetachWAL) or stop the process.
	OnDurabilityLost func(error)
}

// WAL streams committed write sets of one Map into the store directory's
// segmented redo log. Open it with Store.OpenWAL, attach it with
// Map.AttachWAL, close it before the process exits (Close drains and
// fsyncs the staged records). A WAL is the core.RedoSink its map's
// operations log into.
type WAL[V any] struct {
	codec   Codec[V]
	dir     string
	fs      faultfs.FS
	d       *walsync.Daemon
	durable bool
	// tm is the clock domain this WAL serves, bound at AttachWAL: records
	// are stamped with its commit versions and its durable-ack barrier is
	// the one Ack answers, so attaching the same WAL under a second TM is
	// rejected there.
	tm *core.TM
}

// OpenWAL starts a write-ahead log (and its group-commit daemon) in the
// store's directory, alongside the full checkpoints. Existing segments
// are left untouched — a fresh segment is opened after them — so opening
// a WAL never destroys a crashed tail recovery has not read yet.
func (s *Store[V]) OpenWAL(opts WALOptions) (*WAL[V], error) {
	hdr, err := walHeader(s.codec.Name())
	if err != nil {
		return nil, err
	}
	d, err := walsync.Start(walsync.Config{
		Dir:              s.dir,
		Header:           hdr,
		SegmentBytes:     opts.SegmentBytes,
		MaxBatch:         opts.MaxBatch,
		BeforeSync:       opts.BeforeSync,
		FS:               s.fs,
		OnDurabilityLost: opts.OnDurabilityLost,
	})
	if err != nil {
		return nil, err
	}
	return &WAL[V]{codec: s.codec, dir: s.dir, fs: s.fs, d: d}, nil
}

// walHeader builds the static per-segment header for a codec.
func walHeader(codec string) ([]byte, error) {
	if len(codec) > 255 {
		return nil, fmt.Errorf("persistmap: codec name %q too long", codec)
	}
	buf := append([]byte(nil), walMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, walFormat)
	buf = append(buf, uint8(len(codec)))
	buf = append(buf, codec...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// logOp encodes one map operation of the transaction's current attempt
// into the attempt's redo log for w, opening the record's frame with its
// version and count fields reserved on the attempt's first op. A value
// the codec cannot encode fails the whole record: the commit still
// stands, and Ack reports the error.
func (w *WAL[V]) logOp(tx *core.Tx, key int, val V, del bool) {
	r := tx.Redo(w)
	if r.Err != nil {
		return
	}
	buf := r.Buf
	if len(buf) == 0 {
		buf = append(buf, make([]byte, walRecordHead)...)
	}
	op := walOpPut
	if del {
		op = walOpDelete
	}
	buf = append(buf, op)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(key)))
	if !del {
		var err error
		if buf, err = appendValue(buf, w.codec, val); err != nil {
			r.Err = err
			return
		}
	}
	binary.LittleEndian.PutUint32(buf[8:], binary.LittleEndian.Uint32(buf[8:])+1)
	r.Buf = buf
}

// CommitRedo implements core.RedoSink; the runtime calls it once per
// committed attempt that logged into w. It stamps the record with the
// commit version, seals it with its CRC and hands a copy to the
// group-commit daemon, whose sequence number is the ticket Ack redeems.
// A record that failed to encode is never written.
func (w *WAL[V]) CommitRedo(tx *core.Tx, log *core.RedoLog) uint64 {
	if log.Err != nil {
		return 0
	}
	binary.LittleEndian.PutUint64(log.Buf, tx.CommitVersion())
	log.Buf = binary.LittleEndian.AppendUint32(log.Buf, crc32.ChecksumIEEE(log.Buf))
	return w.d.Append(log.Buf)
}

// Ack blocks until the transaction's WAL record is durable and returns
// its verdict — the daemon's, or the error that kept the record from
// being encoded; transactions that logged nothing (or a WAL in
// non-durable mode) return immediately. Map.AttachWAL installs it as the
// TM's durable-ack barrier, which is what parks concurrent committers
// inside Atomically while one fsync covers all of them.
func (w *WAL[V]) Ack(tx *core.Tx) error {
	if !w.durable {
		return nil
	}
	log := tx.CommittedRedo(w)
	if log == nil {
		return nil
	}
	if log.Err != nil {
		return log.Err
	}
	return w.d.Wait(log.Ticket())
}

// Close drains and fsyncs the log. The Map should be quiesced first:
// commits racing with Close fail their durability acks with
// walsync.ErrClosed.
func (w *WAL[V]) Close() error { return w.d.Close() }

// Stats returns the daemon's group-commit counters.
func (w *WAL[V]) Stats() walsync.Stats { return w.d.Stats() }

// Err reports the daemon's poison state: nil while healthy, the
// walsync.ErrDurabilityLost-wrapping error once a segment write or fsync
// has failed. A poisoned WAL fails every durable commit; the owner
// chooses between Map.DetachWAL (serve on, non-durably, by explicit
// decision) and stopping.
func (w *WAL[V]) Err() error { return w.d.Err() }

// TrimTo removes sealed segments every record of which has commit version
// <= ver — the aging-out of WAL history into the checkpoints: once a
// full checkpoint at ver is durable, those records are redundant (the
// checkpoint's pinned cut contains every commit at or below its version).
// The open segment and any segment containing a newer record are kept; a
// sealed segment that fails to parse is kept too (verify will name it).
func (w *WAL[V]) TrimTo(ver uint64) (removed int, err error) {
	segs, err := walsync.ScanSegmentsFS(w.fs, w.dir)
	if err != nil {
		return 0, err
	}
	cur := w.d.CurrentSeq()
	for _, sg := range segs {
		if sg.Seq >= cur {
			continue
		}
		info, ierr := readWALInfo(w.fs, sg, false)
		if ierr != nil || info.Torn {
			continue
		}
		if info.Records > 0 && info.MaxVersion > ver {
			continue
		}
		if rerr := w.fs.Remove(sg.Path); rerr != nil {
			return removed, fmt.Errorf("persistmap: %w", rerr)
		}
		removed++
	}
	if removed > 0 {
		if serr := syncDirFS(w.fs, w.dir); serr != nil {
			return removed, serr
		}
	}
	return removed, nil
}

// WALSegmentInfo describes one scanned segment, for tooling and trim.
type WALSegmentInfo struct {
	Path  string
	Seq   uint64
	Codec string
	// Records counts intact records; Ops the operations inside them.
	Records, Ops int
	// MinVersion/MaxVersion bound the intact records' commit versions
	// (both 0 when the segment is empty). File order is NOT version
	// order, so these are bounds, not first/last.
	MinVersion, MaxVersion uint64
	// Size is the file size in bytes.
	Size int64
	// Torn reports that the segment ends in bytes past the intact prefix
	// (of either damage kind); Damage classifies them — DamageTorn is the
	// legal crash shape (truncation), DamageCorrupt is a bit flip or
	// structural damage inside fully-present bytes.
	Torn   bool
	Damage DamageKind
}

// String renders the info for persistctl output.
func (wi WALSegmentInfo) String() string {
	return fmt.Sprintf("%s  wal seq %d codec=%s records=%d ops=%d versions=[%d,%d] %dB %s",
		wi.Path, wi.Seq, wi.Codec, wi.Records, wi.Ops, wi.MinVersion, wi.MaxVersion, wi.Size, wi.Damage)
}

// walRecord is one intact redo record of a replayed tail: its commit
// version and its ops, the range [lo, hi) of the replay's op arrays.
type walRecord struct {
	ver    uint64
	lo, hi int
}

// walOpFunc sees one operation of the record being walked: its key,
// whether it is a delete, and a put's encoded value.
type walOpFunc func(key int, del bool, raw []byte) error

// parseWALHeader verifies a segment's header and returns the codec name
// plus a cursor positioned at the first record.
func parseWALHeader(path string, data []byte) (string, *reader, error) {
	r := &reader{data: data}
	// Running out of bytes mid-header is the torn shape (a crash before
	// the header's fsync); wrong bytes at full length are corruption.
	torn := func(what string) (string, *reader, error) {
		return "", nil, fmt.Errorf("%w: %w: %s: %s", ErrCorrupt, ErrTornTail, path, what)
	}
	magic, err := r.take(len(walMagic))
	if err != nil {
		return torn("truncated magic")
	}
	if string(magic) != walMagic {
		return "", nil, fmt.Errorf("%w: %s: bad WAL magic", ErrCorrupt, path)
	}
	format, err := r.u16()
	if err != nil {
		return torn("truncated format")
	}
	if format != walFormat {
		return "", nil, fmt.Errorf("%w: %s: unsupported WAL format %d", ErrCorrupt, path, format)
	}
	n, err := r.u8()
	if err != nil {
		return torn("truncated header")
	}
	codec, err := r.take(int(n))
	if err != nil {
		return torn("truncated header")
	}
	crc, err := r.u32()
	if err != nil {
		return torn("truncated header")
	}
	if got := crc32.ChecksumIEEE(data[:r.off-4]); got != crc {
		return "", nil, fmt.Errorf("%w: %s: header checksum %08x, file claims %08x", ErrCorrupt, path, got, crc)
	}
	return string(codec), r, nil
}

// walkWALRecord walks the record at the cursor and checks its structure
// and CRC, returning its commit version and op count. op, when non-nil,
// sees every operation as it is read — before the CRC is checked, so a
// caller drops what it kept of a record that fails. A nil error with
// ok=false means the cursor was already at a clean end of file.
func walkWALRecord(path string, r *reader, op walOpFunc) (ver uint64, ops int, ok bool, err error) {
	if r.off == len(r.data) {
		return 0, 0, false, nil
	}
	start := r.off
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: record at offset %d: %s", ErrCorrupt, path, start, fmt.Sprintf(format, args...))
	}
	// cut is bad's torn-classified sibling: the walk ran off the end of
	// the file, the shape a power cut legally leaves.
	cut := func(format string, args ...any) error {
		return fmt.Errorf("%w: %w: %s: record at offset %d: %s", ErrCorrupt, ErrTornTail, path, start, fmt.Sprintf(format, args...))
	}
	if ver, err = r.u64(); err != nil {
		return 0, 0, false, cut("truncated version")
	}
	count, err := r.u32()
	if err != nil {
		return 0, 0, false, cut("truncated count")
	}
	for i := uint32(0); i < count; i++ {
		kind, err := r.u8()
		if err != nil {
			return 0, 0, false, cut("truncated op %d", i)
		}
		k, err := r.u64()
		if err != nil {
			return 0, 0, false, cut("truncated key of op %d", i)
		}
		var raw []byte
		switch kind {
		case walOpDelete:
		case walOpPut:
			n, err := r.u32()
			if err != nil {
				return 0, 0, false, cut("truncated value length of op %d", i)
			}
			if raw, err = r.take(int(n)); err != nil {
				return 0, 0, false, cut("truncated value of op %d", i)
			}
		default:
			return 0, 0, false, bad("unknown op %d", kind)
		}
		if op != nil {
			if err := op(int(int64(k)), kind == walOpDelete, raw); err != nil {
				return 0, 0, false, bad("value of op %d: %v", i, err)
			}
		}
	}
	crc, err := r.u32()
	if err != nil {
		return 0, 0, false, cut("truncated checksum")
	}
	if got := crc32.ChecksumIEEE(r.data[start : r.off-4]); got != crc {
		return 0, 0, false, bad("checksum %08x, record claims %08x", got, crc)
	}
	return ver, int(count), true, nil
}

// readWALInfo scans one segment structurally: it counts the intact
// records and bounds their versions without decoding a value or keeping a
// record, so its allocations are per segment, not per record. In strict
// mode any damage — torn tail included — is ErrCorrupt; otherwise the
// intact prefix is summarized and Torn/Damage mark the rest.
func readWALInfo(fsys faultfs.FS, sg walsync.Segment, strict bool) (WALSegmentInfo, error) {
	info := WALSegmentInfo{Path: sg.Path, Seq: sg.Seq}
	mode := walTolerateAll
	if strict {
		mode = walStrict
	}
	codec, size, damage, err := readWALSegment(fsys, sg, mode, nil, func(ver uint64, ops int) {
		info.Records++
		info.Ops += ops
		if info.Records == 1 || ver < info.MinVersion {
			info.MinVersion = ver
		}
		info.MaxVersion = max(info.MaxVersion, ver)
	})
	if err != nil {
		return info, err
	}
	info.Codec, info.Size, info.Damage = codec, size, damage
	info.Torn = damage != DamageNone
	return info, nil
}

// Tolerance modes for readWALSegment.
const (
	// walStrict: any damage is an error — verification's mode.
	walStrict = iota
	// walTolerateTorn: a truncation-shaped tail is summarized as damage
	// and the intact prefix returned; corruption inside fully-present
	// bytes is still an error. Replay's mode: a torn tail is what a
	// crash or poisoned daemon legally leaves (on ANY segment — a daemon
	// poisoned mid-batch leaves a torn segment that later reopens make a
	// middle segment), while a bit flip must never be silently skipped.
	walTolerateTorn
	// walTolerateAll: every damage kind is summarized, never an error —
	// tooling's describe-what-is-there mode.
	walTolerateAll
)

// readWALSegment reads a segment and walks its intact record prefix: op
// (when non-nil) sees each record's operations, then record sees its
// version and op count. mode governs what damage past the prefix does
// (see the constants above); a damaged record never reaches record.
func readWALSegment(fsys faultfs.FS, sg walsync.Segment, mode int, op walOpFunc, record func(ver uint64, ops int)) (codec string, size int64, damage DamageKind, err error) {
	data, err := faultfs.ReadFile(fsys, sg.Path)
	if err != nil {
		return "", 0, DamageNone, fmt.Errorf("persistmap: %w", err)
	}
	size = int64(len(data))
	tolerated := func(perr error) bool {
		switch mode {
		case walTolerateAll:
			return true
		case walTolerateTorn:
			return errors.Is(perr, ErrTornTail)
		default:
			return false
		}
	}
	codec, r, err := parseWALHeader(sg.Path, data)
	if err != nil {
		if !tolerated(err) {
			return "", size, classifyDamage(err), err
		}
		// A header that never finished hitting disk: an empty torn
		// segment, nothing to replay.
		return "", size, classifyDamage(err), nil
	}
	for {
		ver, ops, ok, rerr := walkWALRecord(sg.Path, r, op)
		if rerr != nil {
			if !tolerated(rerr) {
				return codec, size, classifyDamage(rerr), rerr
			}
			return codec, size, classifyDamage(rerr), nil
		}
		if !ok {
			return codec, size, DamageNone, nil
		}
		record(ver, ops)
	}
}

// ScanWAL lists and structurally summarizes the directory's WAL segments
// in sequence order, tolerating torn tails (Torn marks them). Use
// VerifyWALSegment for the strict verdict on one file.
func ScanWAL(dir string) ([]WALSegmentInfo, error) {
	segs, err := walsync.ScanSegments(dir)
	if err != nil {
		return nil, err
	}
	infos := make([]WALSegmentInfo, 0, len(segs))
	for _, sg := range segs {
		info, err := readWALInfo(faultfs.OS, sg, false)
		if err != nil {
			return nil, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// segmentOf parses a path's sequence number back out of its name.
func segmentOf(path string) walsync.Segment {
	var seq uint64
	fmt.Sscanf(filepath.Base(path), "wal-%016x"+walsync.Ext, &seq)
	return walsync.Segment{Seq: seq, Path: path}
}

// ReadWALInfo summarizes one segment tolerantly: a torn or damaged tail
// is reported via Torn, not as an error — the info counterpart of
// VerifyWALSegment, for tooling that describes what is on disk.
func ReadWALInfo(path string) (WALSegmentInfo, error) {
	return readWALInfo(faultfs.OS, segmentOf(path), false)
}

// VerifyWALSegment walks every byte of one segment strictly: any
// truncation, bit flip, bad op or checksum mismatch is ErrCorrupt. It is
// the WAL counterpart of VerifyFile, used by persistctl verify and the
// corruption table test.
func VerifyWALSegment(path string) (WALSegmentInfo, error) {
	return readWALInfo(faultfs.OS, segmentOf(path), true)
}

// ReplayInfo summarizes a Store.Replay: what the checkpoint provided,
// what the WAL tail added, and where recovery stopped.
type ReplayInfo struct {
	// CheckpointVersion is the version of the full checkpoint recovery
	// started from (0: none, recovery started from an empty map).
	CheckpointVersion uint64
	// Segments and Records count the WAL segments read and the intact
	// records found; Applied counts the records with versions past the
	// checkpoint that were re-applied.
	Segments, Records, Applied int
	// Version is the highest commit version recovered (the checkpoint's
	// when the WAL added nothing).
	Version uint64
	// TornTail reports that a segment ended in a torn record — the
	// expected shape after a mid-batch kill or a poisoned daemon;
	// everything before the tear was applied.
	TornTail bool
	// SkippedCorrupt lists checkpoint files recovery skipped as damaged:
	// it fell back to the newest full among the REMAINING files. When the
	// skipped file was the newest full and the WAL had already been
	// trimmed past the previous checkpoint, commits between the two
	// checkpoints may be unrecoverable — non-empty SkippedCorrupt is a
	// restore-from-here warning, not business as usual.
	SkippedCorrupt []string
}

// Replay is crash recovery: load the newest full checkpoint into m via
// the chunked restore path, then re-apply the WAL tail — every intact
// record with a commit version past the checkpoint — in commit-version
// order through the chunked live-apply path. Damaged checkpoint files are
// skipped (reported in SkippedCorrupt) and the newest intact full is
// used, so one corrupt newest full degrades recovery instead of failing
// it. The newest WAL segment tolerates any damage (a crash legally leaves
// arbitrary garbage past the synced prefix); sealed segments tolerate
// only TORN tails — a truncation is what a poisoned daemon's unsynced
// bytes legally leave — while full-length corruption there is a bit flip
// over ACKED records and fails the replay loudly: silently skipping them
// would break acked ⇒ survives. The recovered map is the checkpoint
// state plus every acked commit the disk still holds.
func (s *Store[V]) Replay(m *Map[V]) (*ReplayInfo, error) {
	info := &ReplayInfo{}
	infos, corrupt, err := scanLax(s.fs, s.dir)
	if err != nil {
		return nil, err
	}
	for _, c := range corrupt {
		info.SkippedCorrupt = append(info.SkippedCorrupt, c.Path)
	}
	// With no intact checkpoint (empty directory, or every full damaged)
	// recovery starts empty, from the WAL alone.
	if len(infos) > 0 {
		b, err := s.ReadFull(infos[len(infos)-1].Path)
		if err != nil {
			return nil, err
		}
		if err := m.RestoreFullTx(b); err != nil {
			return nil, err
		}
		info.CheckpointVersion = b.Version
		info.Version = b.Version
	}
	segs, err := walsync.ScanSegmentsFS(s.fs, s.dir)
	if err != nil {
		return nil, err
	}
	// The tail's ops, in file order, in flat arrays the records index.
	var (
		tail []walRecord
		keys []int
		vals []V
		dels []bool
	)
	decode := func(key int, del bool, raw []byte) error {
		var v V
		if !del {
			var err error
			if v, err = s.codec.Decode(raw); err != nil {
				return err
			}
		}
		keys, vals, dels = append(keys, key), append(vals, v), append(dels, del)
		return nil
	}
	kept := 0 // ops of the intact records so far
	record := func(ver uint64, _ int) {
		tail = append(tail, walRecord{ver: ver, lo: kept, hi: len(keys)})
		kept = len(keys)
	}
	for i, sg := range segs {
		// The newest segment tolerates ANY damage — a crash can land a
		// full-length record with garbage bytes, not just a truncation —
		// while sealed segments tolerate only the truncation shape: their
		// bytes were fsynced before the roll, so full-length corruption
		// there is a bit flip over ACKED records, never a legal crash.
		mode := walTolerateTorn
		if i == len(segs)-1 {
			mode = walTolerateAll
		}
		before := len(tail)
		codec, _, damage, err := readWALSegment(s.fs, sg, mode, decode, record)
		if err != nil {
			return nil, err
		}
		if codec != "" && codec != s.codec.Name() {
			return nil, fmt.Errorf("persistmap: %s: segment codec %q, store uses %q", sg.Path, codec, s.codec.Name())
		}
		info.Segments++
		info.Records += len(tail) - before
		if damage != DamageNone {
			info.TornTail = true
		}
		// Drop the ops a damaged record decoded before it failed.
		keys, vals, dels = keys[:kept], vals[:kept], dels[:kept]
	}
	// File order is enqueue order, not commit order; redo must apply in
	// commit-version order (conflicting writers serialized through cell
	// locks in exactly that order). The sort is stable so records sharing
	// a version — GVPass adopts the winner's version, and such commits
	// have disjoint write sets — keep their enqueue order.
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].ver < tail[j].ver })
	var (
		redoKeys []int
		redoVals []V
		redoDels []bool
	)
	for _, rec := range tail {
		if rec.ver <= info.CheckpointVersion {
			// Already inside the checkpoint's pinned cut.
			continue
		}
		info.Applied++
		if rec.ver > info.Version {
			info.Version = rec.ver
		}
		redoKeys = append(redoKeys, keys[rec.lo:rec.hi]...)
		redoVals = append(redoVals, vals[rec.lo:rec.hi]...)
		redoDels = append(redoDels, dels[rec.lo:rec.hi]...)
	}
	if err := m.applyOps(redoKeys, redoVals, redoDels); err != nil {
		return nil, err
	}
	return info, nil
}
