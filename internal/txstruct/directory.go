package txstruct

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Directory errors, matchable with errors.Is.
var (
	// ErrExists is returned by Create and Rename when the target name is
	// already taken.
	ErrExists = errors.New("name already exists")
	// ErrNotFound is returned by Remove and Rename when the source name
	// is absent.
	ErrNotFound = errors.New("name not found")
)

// dirEntry is one name binding; next is a cell holding the successor
// *dirEntry, embedded in the entry, so directory walks carry entry
// pointers unboxed. The name and the bound file are immutable per entry:
// CreateTx sets both before the entry is published, and a rename binds the
// file to a new entry, so neither needs a cell.
type dirEntry struct {
	name string
	file any
	next core.TypedCell[*dirEntry]
}

// Directory maps names to files, the abstraction of the paper's section
// 2.2: with transactions, Bob composes Alice's remove and create into an
// atomic rename — including across two directories — without knowing any
// locking strategy, the scenario the Google File System solves with
// depth-ordered locking.
type Directory struct {
	tm   *core.TM
	head core.TypedCell[*dirEntry] // sorted by name
}

// NewDirectory builds an empty directory bound to tm.
func NewDirectory(tm *core.TM) *Directory {
	d := &Directory{tm: tm}
	core.InitTypedCell(tm, &d.head, nil)
	return d
}

// find walks to name's position: prev is the entry before it (nil at
// head), curr the entry at or after it.
func (d *Directory) find(tx *core.Tx, name string) (prev, curr *dirEntry) {
	curr = d.head.Load(tx)
	for curr != nil && curr.name < name {
		prev = curr
		curr = curr.next.Load(tx)
	}
	return prev, curr
}

// LookupTx returns the file bound to name inside the caller's transaction.
func (d *Directory) LookupTx(tx *core.Tx, name string) (any, bool) {
	_, curr := d.find(tx, name)
	if curr == nil || curr.name != name {
		return nil, false
	}
	return curr.file, true
}

// CreateTx binds name to file inside the caller's transaction; it returns
// ErrExists when the name is taken. This is "Alice's" component operation.
func (d *Directory) CreateTx(tx *core.Tx, name string, file any) error {
	prev, curr := d.find(tx, name)
	if curr != nil && curr.name == name {
		return fmt.Errorf("create %q: %w", name, ErrExists)
	}
	e := &dirEntry{name: name, file: file}
	core.InitTypedCell(d.tm, &e.next, curr)
	if prev == nil {
		d.head.Store(tx, e)
	} else {
		prev.next.Store(tx, e)
	}
	return nil
}

// RemoveTx unbinds name inside the caller's transaction and returns the
// file it was bound to; it returns ErrNotFound when absent. This is
// "Alice's" other component operation.
func (d *Directory) RemoveTx(tx *core.Tx, name string) (any, error) {
	prev, curr := d.find(tx, name)
	if curr == nil || curr.name != name {
		return nil, fmt.Errorf("remove %q: %w", name, ErrNotFound)
	}
	succ := curr.next.Load(tx)
	if prev == nil {
		d.head.Store(tx, succ)
	} else {
		prev.next.Store(tx, succ)
	}
	curr.next.Store(tx, succ)
	return curr.file, nil
}

// Lookup returns the file bound to name.
func (d *Directory) Lookup(name string) (file any, found bool, err error) {
	err = d.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		file, found = d.LookupTx(tx, name)
		return nil
	})
	return file, found, err
}

// Create atomically binds name to file.
func (d *Directory) Create(name string, file any) error {
	return d.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		return d.CreateTx(tx, name, file)
	})
}

// Remove atomically unbinds name.
func (d *Directory) Remove(name string) (file any, err error) {
	err = d.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		var rerr error
		file, rerr = d.RemoveTx(tx, name)
		return rerr
	})
	return file, err
}

// Names returns an atomic snapshot of the bound names in order.
func (d *Directory) Names() ([]string, error) {
	var out []string
	err := d.tm.Atomically(core.Snapshot, func(tx *core.Tx) error {
		out = out[:0]
		for e := d.head.Load(tx); e != nil; e = e.next.Load(tx) {
			out = append(out, e.name)
		}
		return nil
	})
	return out, err
}

// Rename atomically moves src in d to dst in target ("Bob's" composite of
// Figure 3). d and target may be the same directory or different ones;
// either way the composition is deadlock-free with no lock-ordering
// knowledge, because conflict resolution is the contention manager's job.
func (d *Directory) Rename(target *Directory, src, dst string) error {
	return d.tm.Atomically(core.Classic, func(tx *core.Tx) error {
		file, err := d.RemoveTx(tx, src)
		if err != nil {
			return fmt.Errorf("rename %q -> %q: %w", src, dst, err)
		}
		if err := target.CreateTx(tx, dst, file); err != nil {
			return fmt.Errorf("rename %q -> %q: %w", src, dst, err)
		}
		return nil
	})
}
