package persistmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/faultfs"
)

// This file is the durable half of the persistent-map layer: full
// checkpoints — one Backup per file, taken under a SnapshotPin — written
// to disk and read back into the in-memory Backup that Restore swaps in
// copy-on-write. The single-cut guarantee a SnapshotPin gives in memory
// crosses the process boundary here, so the format is paranoid by
// construction: self-describing header, length-prefixed records, and a
// CRC32 over header and body that makes a torn, truncated or bit-flipped
// file fail the load with ErrCorrupt — never a silently half-applied map.
// Commits past the newest checkpoint live in the write-ahead log (wal.go).
//
// File layout (all integers little-endian):
//
//	magic     [8]byte  "repromap"
//	format    uint16   currently 1
//	kind      uint8    1 = full checkpoint (the only kind this build reads)
//	codec     uint8 n, [n]byte   the value codec's Name
//	version   uint64   the pin version the file captures
//	parent    uint64   == version
//	count     uint64   number of records in the body
//	body      count × { key int64, len uint32, value [len]byte }
//	crc       uint32   IEEE CRC32 over every preceding byte
type fileHeader struct {
	Kind    FileKind
	Codec   string
	Version uint64
	Parent  uint64
	Count   uint64
}

// FileKind is the header's kind byte. FileFull is the only kind this
// build writes or reads; an older build's incremental-diff files (kind 2)
// are rejected as ErrCorrupt.
type FileKind uint8

// FileFull is a complete checkpoint of the map at one pin version.
const FileFull FileKind = 1

// String names the kind for tooling output.
func (k FileKind) String() string {
	if k == FileFull {
		return "full"
	}
	return fmt.Sprintf("FileKind(%d)", uint8(k))
}

// ErrCorrupt is wrapped by every load-path failure caused by file damage —
// checksum mismatch, truncation, bad magic, malformed records — so callers
// can distinguish "the checkpoint is damaged" from I/O errors with
// errors.Is.
var ErrCorrupt = errors.New("persistmap: corrupt backup file")

// ErrNoCheckpoint marks a directory that holds no full checkpoint — it
// may be empty, hold only WAL segments, or have lost its checkpoints to
// damage. Distinguishable from ErrCorrupt so callers can tell "nothing
// there" from "something there is broken".
var ErrNoCheckpoint = errors.New("persistmap: no full checkpoint")

const (
	fileMagic  = "repromap"
	fileFormat = uint16(1)
	fileExt    = ".pmb" // persistent map backup
)

// fileName returns the canonical checkpoint name, full-<version>,
// hex-padded so lexical order is version order.
func (h fileHeader) fileName() string {
	return fmt.Sprintf("full-%016x%s", h.Version, fileExt)
}

// Store writes and loads the full checkpoints of one map in one
// directory, beside the map's WAL segments (OpenWAL): WriteFull lands a
// checkpoint, Load reads the newest one, Replay recovers newest checkpoint
// plus WAL tail. Callers serialize their checkpoint writes; the store
// adds no locking of its own.
type Store[V any] struct {
	dir   string
	codec Codec[V]
	fs    faultfs.FS
	// Checkpoint-write retry policy (see StoreOptions).
	writeAttempts int
	writeBackoff  time.Duration
}

// StoreOptions tunes a Store beyond its directory and codec.
type StoreOptions struct {
	// FS is the filesystem the store reads and writes through; nil means
	// the real disk (faultfs.OS). Fault-injection harnesses substitute a
	// faultfs.FaultFS here.
	FS faultfs.FS
	// WriteAttempts bounds how many times a checkpoint write (WriteFull)
	// is attempted before the error is surfaced; <= 0 means the default
	// (3). Retrying here is SAFE, unlike in the WAL: every attempt
	// rebuilds the entire temp file from the in-memory buffer with a
	// truncating create, so a prior attempt's fate — including an fsync
	// whose dirty pages the kernel dropped — cannot leak into the bytes
	// the successful attempt lands.
	WriteAttempts int
	// WriteBackoff is the pause before retry n (scaled linearly by n);
	// <= 0 means the default (2ms).
	WriteBackoff time.Duration
}

const (
	defaultWriteAttempts = 3
	defaultWriteBackoff  = 2 * time.Millisecond
)

// NewStore opens (creating if needed) the checkpoint directory with the
// given value codec, on the real disk with default retry policy.
func NewStore[V any](dir string, codec Codec[V]) (*Store[V], error) {
	return NewStoreWith(dir, codec, StoreOptions{})
}

// NewStoreWith is NewStore with explicit options.
func NewStoreWith[V any](dir string, codec Codec[V], opts StoreOptions) (*Store[V], error) {
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	if opts.WriteAttempts <= 0 {
		opts.WriteAttempts = defaultWriteAttempts
	}
	if opts.WriteBackoff <= 0 {
		opts.WriteBackoff = defaultWriteBackoff
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("persistmap: %w", err)
	}
	return &Store[V]{dir: dir, codec: codec, fs: opts.FS,
		writeAttempts: opts.WriteAttempts, writeBackoff: opts.WriteBackoff}, nil
}

// Dir returns the checkpoint directory.
func (s *Store[V]) Dir() string { return s.dir }

// WriteFull writes b as a full checkpoint file and returns its path. The
// write is atomic (temp file, fsync, rename): a crash mid-write leaves at
// most a temp file the loader never considers.
func (s *Store[V]) WriteFull(b *Backup[V]) (string, error) {
	h := fileHeader{Kind: FileFull, Codec: s.codec.Name(), Version: b.Version,
		Parent: b.Version, Count: uint64(len(b.keys))}
	buf, err := appendHeader(nil, h)
	if err != nil {
		return "", err
	}
	for i := range b.keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(b.keys[i])))
		buf, err = appendValue(buf, s.codec, b.vals[i])
		if err != nil {
			return "", err
		}
	}
	return s.writeFile(h, buf)
}

// writeFile seals buf with the trailer CRC and lands it atomically, with
// bounded retry for transient failures (ENOSPC racing a cleanup, a
// flaky device). Retrying is sound here — and ONLY here, never in the
// WAL — because every attempt rebuilds the whole temp file from buf with
// a truncating create before the rename publishes it: a previous
// attempt's failed fsync cannot have left bytes the successful attempt
// depends on.
func (s *Store[V]) writeFile(h fileHeader, buf []byte) (string, error) {
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	path := filepath.Join(s.dir, h.fileName())
	tmp := path + ".tmp"
	var err error
	for attempt := 0; attempt < s.writeAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * s.writeBackoff)
		}
		if err = s.writeFileOnce(path, tmp, buf); err == nil {
			return path, nil
		}
		// Best-effort cleanup; a leaked .tmp is inert (Scan reports it as
		// an orphan, persistctl clean removes it).
		s.fs.Remove(tmp)
	}
	return "", err
}

// writeFileOnce is one atomic-publish attempt: temp file, write, fsync,
// close, rename, directory fsync.
func (s *Store[V]) writeFileOnce(path, tmp string, buf []byte) error {
	f, err := s.fs.Create(tmp, false)
	if err != nil {
		return fmt.Errorf("persistmap: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("persistmap: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persistmap: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persistmap: %w", err)
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("persistmap: %w", err)
	}
	// The rename's directory entry must reach disk too: without it a
	// crash after "success" can lose the whole file, and a caller that
	// trimmed the WAL against it would recover an OLDER state with no
	// error — the quiet data loss this format exists to preclude.
	return syncDirFS(s.fs, s.dir)
}

// syncDirFS fsyncs a directory, making its entries (renames, removals)
// durable. Filesystems that refuse to fsync directories surface the error
// rather than downgrading durability silently.
func syncDirFS(fsys faultfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("persistmap: sync %s: %w", dir, err)
	}
	return nil
}

func appendValue[V any](buf []byte, codec Codec[V], v V) ([]byte, error) {
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf, err := codec.Append(buf, v)
	if err != nil {
		return nil, fmt.Errorf("persistmap: encode: %w", err)
	}
	n := len(buf) - lenAt - 4
	if int64(n) > int64(^uint32(0)) {
		return nil, fmt.Errorf("persistmap: record of %d bytes exceeds format limit", n)
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(n))
	return buf, nil
}

func appendHeader(buf []byte, h fileHeader) ([]byte, error) {
	if len(h.Codec) > 255 {
		return nil, fmt.Errorf("persistmap: codec name %q too long", h.Codec)
	}
	buf = append(buf, fileMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, fileFormat)
	buf = append(buf, uint8(h.Kind))
	buf = append(buf, uint8(len(h.Codec)))
	buf = append(buf, h.Codec...)
	buf = binary.LittleEndian.AppendUint64(buf, h.Version)
	buf = binary.LittleEndian.AppendUint64(buf, h.Parent)
	buf = binary.LittleEndian.AppendUint64(buf, h.Count)
	return buf, nil
}

// reader is a bounds-checked cursor over a verified file body; every
// overrun is an ErrCorrupt, never a panic.
type reader struct {
	data []byte
	off  int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, fmt.Errorf("%w: record overruns file", ErrCorrupt)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// openFile reads a checkpoint file, verifies the trailer CRC over header
// and body, and returns the parsed header plus a cursor over the body.
// Every damage mode — truncation, bit flips, bad magic, unknown format or
// kind — fails here with ErrCorrupt before a single record is decoded.
func openFile(fsys faultfs.FS, path string) (fileHeader, *reader, error) {
	var h fileHeader
	data, err := faultfs.ReadFile(fsys, path)
	if err != nil {
		return h, nil, fmt.Errorf("persistmap: %w", err)
	}
	if len(data) < len(fileMagic)+4 {
		return h, nil, fmt.Errorf("%w: %s: %d bytes is shorter than any valid file", ErrCorrupt, path, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return h, nil, fmt.Errorf("%w: %s: checksum %08x, file claims %08x", ErrCorrupt, path, got, want)
	}
	r := &reader{data: body}
	magic, err := r.take(len(fileMagic))
	if err != nil || string(magic) != fileMagic {
		return h, nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	format, err := r.u16()
	if err != nil {
		return h, nil, err
	}
	if format != fileFormat {
		return h, nil, fmt.Errorf("%w: %s: format %d, this build reads %d", ErrCorrupt, path, format, fileFormat)
	}
	kind, err := r.u8()
	if err != nil {
		return h, nil, err
	}
	if FileKind(kind) != FileFull {
		return h, nil, fmt.Errorf("%w: %s: unknown file kind %d", ErrCorrupt, path, kind)
	}
	nameLen, err := r.u8()
	if err != nil {
		return h, nil, err
	}
	name, err := r.take(int(nameLen))
	if err != nil {
		return h, nil, err
	}
	h.Kind = FileKind(kind)
	h.Codec = string(name)
	if h.Version, err = r.u64(); err != nil {
		return h, nil, err
	}
	if h.Parent, err = r.u64(); err != nil {
		return h, nil, err
	}
	if h.Count, err = r.u64(); err != nil {
		return h, nil, err
	}
	return h, r, nil
}

// FileInfo is the inspectable identity of one checkpoint file, readable
// without a value codec (cmd/persistctl's currency).
type FileInfo struct {
	Path    string
	Kind    FileKind
	Codec   string
	Version uint64
	Count   uint64
	Size    int64
}

// String renders one tooling line.
func (fi FileInfo) String() string {
	return fmt.Sprintf("%-6s version %d codec=%s records=%d bytes=%d",
		fi.Kind, fi.Version, fi.Codec, fi.Count, fi.Size)
}

// infoOf is the FileInfo of an opened file; r holds its body.
func infoOf(path string, h fileHeader, r *reader) FileInfo {
	return FileInfo{Path: path, Kind: h.Kind, Codec: h.Codec, Version: h.Version,
		Count: h.Count, Size: int64(len(r.data)) + 4}
}

// ReadInfo verifies a checkpoint file's checksum and returns its header,
// codec-agnostically. It does not decode records; VerifyFile does the
// structural walk as well.
func ReadInfo(path string) (FileInfo, error) {
	return readInfo(faultfs.OS, path)
}

func readInfo(fsys faultfs.FS, path string) (FileInfo, error) {
	h, r, err := openFile(fsys, path)
	if err != nil {
		return FileInfo{}, err
	}
	return infoOf(path, h, r), nil
}

// VerifyFile is ReadInfo plus a full structural walk of the body: every
// record's framing must parse, keys must ascend strictly, and the body
// must end exactly at the declared count — all without decoding a single
// value, so it needs no codec.
func VerifyFile(path string) (FileInfo, error) {
	h, r, err := openFile(faultfs.OS, path)
	if err != nil {
		return FileInfo{}, err
	}
	info := infoOf(path, h, r)
	prevKey, first := 0, true
	for i := uint64(0); i < h.Count; i++ {
		keyBits, err := r.u64()
		if err != nil {
			return info, err
		}
		key := int(int64(keyBits))
		if !first && key <= prevKey {
			return info, fmt.Errorf("%w: %s: record %d: key %d out of order", ErrCorrupt, path, i, key)
		}
		prevKey, first = key, false
		n, err := r.u32()
		if err != nil {
			return info, err
		}
		if _, err := r.take(int(n)); err != nil {
			return info, err
		}
	}
	if r.off != len(r.data) {
		return info, fmt.Errorf("%w: %s: %d trailing bytes after %d records",
			ErrCorrupt, path, len(r.data)-r.off, h.Count)
	}
	return info, nil
}

// checkCodec rejects a file written with a different value codec before a
// single record is decoded with the wrong one.
func (s *Store[V]) checkCodec(path string, h fileHeader) error {
	if h.Codec != s.codec.Name() {
		return fmt.Errorf("persistmap: %s written with codec %q, store uses %q", path, h.Codec, s.codec.Name())
	}
	return nil
}

// ReadFull loads one full checkpoint file.
func (s *Store[V]) ReadFull(path string) (*Backup[V], error) {
	h, r, err := openFile(s.fs, path)
	if err != nil {
		return nil, err
	}
	if err := s.checkCodec(path, h); err != nil {
		return nil, err
	}
	b := &Backup[V]{Version: h.Version}
	for i := uint64(0); i < h.Count; i++ {
		keyBits, err := r.u64()
		if err != nil {
			return nil, err
		}
		key := int(int64(keyBits))
		if len(b.keys) > 0 && key <= b.keys[len(b.keys)-1] {
			return nil, fmt.Errorf("%w: %s: key %d out of order", ErrCorrupt, path, key)
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		enc, err := r.take(int(n))
		if err != nil {
			return nil, err
		}
		v, err := s.codec.Decode(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: key %d: %v", ErrCorrupt, path, key, err)
		}
		b.keys = append(b.keys, key)
		b.vals = append(b.vals, v)
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("%w: %s: %d trailing bytes", ErrCorrupt, path, len(r.data)-r.off)
	}
	return b, nil
}

// Scan verifies and returns the header of every checkpoint file in the
// directory, sorted by version; the first damaged file fails the scan. A
// directory with no checkpoint files is an empty (not an error) scan.
func Scan(dir string) ([]FileInfo, error) {
	return scanStrict(faultfs.OS, dir)
}

func scanStrict(fsys faultfs.FS, dir string) ([]FileInfo, error) {
	infos, corrupt, err := scanLax(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(corrupt) > 0 {
		return nil, corrupt[0].Err
	}
	return infos, nil
}

// CorruptFile is one checkpoint file a lax scan could not verify.
type CorruptFile struct {
	Path string
	Err  error
}

// ScanLax reads every checkpoint file's header like Scan, but collects
// damaged files instead of failing on the first one — the scan tooling
// uses to render a partially damaged directory.
func ScanLax(dir string) ([]FileInfo, []CorruptFile, error) {
	return scanLax(faultfs.OS, dir)
}

// scanLax reads every checkpoint file's header, collecting damaged files
// instead of failing the scan — the substrate of checkpoint-corruption
// fallback (Replay keeps loading around a corrupt newest full) and of
// tooling that must render a damaged directory.
func scanLax(fsys faultfs.FS, dir string) ([]FileInfo, []CorruptFile, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persistmap: %w", err)
	}
	var infos []FileInfo
	var corrupt []CorruptFile
	for _, name := range names {
		if !strings.HasSuffix(name, fileExt) {
			continue
		}
		path := filepath.Join(dir, name)
		info, err := readInfo(fsys, path)
		if err != nil {
			corrupt = append(corrupt, CorruptFile{Path: path, Err: err})
			continue
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Version < infos[j].Version })
	return infos, corrupt, nil
}

// Orphans lists leftover temp files (.pmb.tmp) in the directory: the
// residue of an interrupted or failed checkpoint write. They are inert —
// no loader considers them — but they hold space; persistctl's clean
// subcommand removes them.
func Orphans(dir string) ([]string, error) {
	return orphans(faultfs.OS, dir)
}

func orphans(fsys faultfs.FS, dir string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persistmap: %w", err)
	}
	var found []string
	for _, name := range names {
		if strings.HasSuffix(name, fileExt+".tmp") {
			found = append(found, filepath.Join(dir, name))
		}
	}
	return found, nil
}

// Load reads the directory's newest full checkpoint. Every checkpoint
// file is verified first, so a damaged one fails the load with
// ErrCorrupt (Replay is the recovery path that skips damaged files and
// reports them); a directory without one fails with ErrNoCheckpoint.
func (s *Store[V]) Load() (*Backup[V], error) {
	infos, err := scanStrict(s.fs, s.dir)
	if err != nil {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.dir)
	}
	return s.ReadFull(infos[len(infos)-1].Path)
}
