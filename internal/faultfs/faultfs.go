// Package faultfs is the storage fault layer under the durability stack: a
// minimal filesystem interface (FS/File) with two implementations — OsFS,
// the zero-cost pass-through to the os package that production code runs
// on, and FaultFS, an in-memory disk model that injects failures
// (ENOSPC/EIO/short writes per a seeded or targeted schedule), models
// fsyncgate semantics (after a failed fsync the unsynced bytes are LOST,
// not retryable — a retried Sync "succeeds" over dropped data), and
// records every mutation so a power cut can be simulated at any operation
// boundary (CrashImage keeps only bytes covered by a successful sync,
// plus an optional torn suffix of the last unsynced write). The read path
// has its own opt-in fault surface (SetReadInjector): EIO at read time
// and bit rot — a stored bit flips at Open/Read and surfaces only at
// whatever checksum verifies the content.
//
// The interface is deliberately tiny: exactly the operations
// persistmap/walsync reach the disk through. Durability semantics are
// strict-POSIX: file bytes survive a crash only up to the file's last
// successful Sync, and a directory entry (creation, rename, removal)
// survives only once the directory itself was synced — so code that skips
// a SyncDir loses the whole file on the simulated crash, exactly the
// quiet failure mode the callers' write protocols exist to preclude.
package faultfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem surface the durability stack writes through.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating an existing file; with
	// excl set, an existing file is an error (fs.ErrExist) instead.
	Create(name string, excl bool) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// Rename atomically replaces newname with oldname's file.
	Rename(oldname, newname string) error
	// Remove unlinks name.
	Remove(name string) error
	// ReadDir lists dir's FILE names (subdirectories excluded), sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs dir, making its entries (creations, renames,
	// removals) durable.
	SyncDir(dir string) error
}

// File is one open file handle.
type File interface {
	io.Reader
	io.Writer
	// Sync flushes written bytes to stable storage. A failed Sync means
	// the unsynced bytes are in an UNKNOWN state; callers must not retry
	// and assume success covers them (fsyncgate).
	Sync() error
	// Truncate cuts (or extends) the file to size bytes.
	Truncate(size int64) error
	Close() error
}

// ReadFile reads the whole of name through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// A file that knows its size is read into one buffer of that size, so
	// reading a segment costs the same allocations at any length.
	size := 512
	if st, ok := f.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := st.Stat(); err == nil {
			size = int(fi.Size()) + 1 // room to see EOF without growing
		}
	}
	data := make([]byte, 0, size)
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return data, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// OsFS is the pass-through FS over the os package — what production code
// runs on. The zero value is ready to use.
type OsFS struct{}

// OS is the shared pass-through instance.
var OS FS = OsFS{}

// MkdirAll implements FS.
func (OsFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OsFS) Create(name string, excl bool) (File, error) {
	flag := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if excl {
		flag = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	}
	return os.OpenFile(name, flag, 0o644)
}

// Open implements FS.
func (OsFS) Open(name string) (File, error) { return os.Open(name) }

// Rename implements FS.
func (OsFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OsFS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS: file names only, sorted (os.ReadDir's order).
func (OsFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

// SyncDir implements FS.
func (OsFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// notExist builds the canonical does-not-exist error for the in-memory FS.
func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// split normalizes path into (dir, base) with a cleaned dir key.
func split(path string) (string, string) {
	dir, base := filepath.Split(path)
	return filepath.Clean(dir), base
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pathErr wraps an injected fault as a path error so call sites report it
// like any real I/O failure.
func pathErr(op, path string, err error) error {
	return fmt.Errorf("%s %s: %w", op, path, err)
}
