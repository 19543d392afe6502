package main

import (
	"io"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
)

// memFS is the benchmark's device: an in-memory faultfs.FS that records
// nothing (faultfs.FaultFS keeps an unbounded mutation trace and cannot
// run for a whole measured window) but keeps the same strict-POSIX crash
// model — a file's bytes survive only up to its last Sync, a directory
// entry only once its directory was synced — and counts what reaches it.
// Device time is zero by construction: the latencies measured over it are
// the program's share of a durable ack, not a disk's.
type memFS struct {
	mu   sync.Mutex
	dirs map[string]*memDir

	writes, writeBytes, syncs atomic.Int64
}

// memDir holds the live entries and the entries as of the last SyncDir.
type memDir struct {
	live, durable map[string]*memFile
}

// memFile is one inode. data is never modified in place below its current
// length (Write appends, Truncate reallocates), so a reader may keep the
// slice it saw at Open.
type memFile struct {
	mu     sync.Mutex
	data   []byte
	synced int
}

var _ faultfs.FS = (*memFS)(nil)

func newMemFS() *memFS { return &memFS{dirs: make(map[string]*memDir)} }

func splitPath(path string) (dir, base string) {
	dir, base = filepath.Split(path)
	return filepath.Clean(dir), base
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// MkdirAll implements faultfs.FS. Directories are durable at creation:
// they are made during set-up, never on a path a crash is aimed at.
func (m *memFS) MkdirAll(dir string) error {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[dir] == nil {
		m.dirs[dir] = &memDir{live: make(map[string]*memFile), durable: make(map[string]*memFile)}
	}
	return nil
}

// Create implements faultfs.FS.
func (m *memFS) Create(name string, excl bool) (faultfs.File, error) {
	dir, base := splitPath(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		return nil, notExist("create", name)
	}
	f := d.live[base]
	switch {
	case f != nil && excl:
		return nil, &fs.PathError{Op: "create", Path: name, Err: fs.ErrExist}
	case f != nil:
		f.mu.Lock()
		f.data, f.synced = nil, 0
		f.mu.Unlock()
	default:
		f = &memFile{}
		d.live[base] = f
	}
	return &memHandle{fs: m, f: f, write: true}, nil
}

// Open implements faultfs.FS.
func (m *memFS) Open(name string) (faultfs.File, error) {
	dir, base := splitPath(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil || d.live[base] == nil {
		return nil, notExist("open", name)
	}
	f := d.live[base]
	f.mu.Lock()
	data := f.data
	f.mu.Unlock()
	return &memHandle{fs: m, f: f, rd: data}, nil
}

// Rename implements faultfs.FS. The live entry moves at once; it is
// durable after SyncDir.
func (m *memFS) Rename(oldname, newname string) error {
	odir, obase := splitPath(oldname)
	ndir, nbase := splitPath(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	od, nd := m.dirs[odir], m.dirs[ndir]
	if od == nil || nd == nil || od.live[obase] == nil {
		return notExist("rename", oldname)
	}
	nd.live[nbase] = od.live[obase]
	delete(od.live, obase)
	return nil
}

// Remove implements faultfs.FS.
func (m *memFS) Remove(name string) error {
	dir, base := splitPath(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil || d.live[base] == nil {
		return notExist("remove", name)
	}
	delete(d.live, base)
	return nil
}

// ReadDir implements faultfs.FS: live file names, sorted.
func (m *memFS) ReadDir(dir string) ([]string, error) {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		return nil, notExist("readdir", dir)
	}
	names := make([]string, 0, len(d.live))
	for n := range d.live {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements faultfs.FS: the live entry set becomes the durable one.
func (m *memFS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		return notExist("syncdir", dir)
	}
	d.durable = maps.Clone(d.live)
	m.syncs.Add(1)
	return nil
}

// Crash is the power cut: every directory falls back to its last synced
// entry set and every file to its last synced prefix. Open handles stay
// usable (they point at the surviving inode or at an orphan).
func (m *memFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.dirs {
		for _, f := range d.live {
			f.dropUnsynced()
		}
		for _, f := range d.durable {
			f.dropUnsynced()
		}
		d.live = maps.Clone(d.durable)
	}
}

func (f *memFile) dropUnsynced() {
	f.mu.Lock()
	f.data = f.data[:f.synced:f.synced]
	f.mu.Unlock()
}

// size returns the length of name, 0 when it does not exist.
func (m *memFS) size(name string) int64 {
	dir, base := splitPath(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil || d.live[base] == nil {
		return 0
	}
	f := d.live[base]
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data))
}

// memHandle is one open file: an append-only writer or a reader over the
// bytes present at Open.
type memHandle struct {
	fs    *memFS
	f     *memFile
	write bool
	rd    []byte
}

func (h *memHandle) Read(p []byte) (int, error) {
	if len(h.rd) == 0 {
		return 0, io.EOF
	}
	n := copy(p, h.rd)
	h.rd = h.rd[n:]
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	if !h.write {
		return 0, &fs.PathError{Op: "write", Err: fs.ErrPermission}
	}
	h.f.mu.Lock()
	h.f.data = append(h.f.data, p...)
	h.f.mu.Unlock()
	h.fs.writes.Add(1)
	h.fs.writeBytes.Add(int64(len(p)))
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.f.mu.Lock()
	h.f.synced = len(h.f.data)
	h.f.mu.Unlock()
	h.fs.syncs.Add(1)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	data := make([]byte, size)
	copy(data, h.f.data)
	h.f.data = data
	if h.f.synced > int(size) {
		h.f.synced = int(size)
	}
	return nil
}

func (h *memHandle) Close() error { return nil }
