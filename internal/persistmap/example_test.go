package persistmap_test

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/persistmap"
)

// ExampleStore is the durability walkthrough: checkpoint a live
// transactional map to disk — a full copy of one pinned cut, taken while
// writers may keep committing — crash-restart into a fresh TM, and reload
// the newest checkpoint: the same single-cut guarantee, across the
// process boundary. Checkpoint files are checksummed; a flipped byte
// fails the load instead of restoring a silently wrong map.
func ExampleStore() {
	dir, err := os.MkdirTemp("", "persistmap-example-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	tm := core.New()
	m := persistmap.New[string](tm)
	store, err := persistmap.NewStore(dir, persistmap.StringCodec{})
	if err != nil {
		panic(err)
	}

	// Committed base state, then a full checkpoint of one consistent cut.
	m.Put(1, "one")
	m.Put(2, "two")
	m.Put(3, "three")
	first, _ := m.Backup()
	firstPath, _ := store.WriteFull(first)

	// More commits, then the next checkpoint, which supersedes the first.
	m.Put(2, "TWO")
	m.Delete(3)
	m.Put(4, "four")
	second, _ := m.Backup()
	store.WriteFull(second)
	os.Remove(firstPath)
	fmt.Printf("checkpoints of %d then %d binding(s)\n", first.Len(), second.Len())

	// "Crash": a fresh TM with a fresh map, nothing shared but the files.
	// Load verifies the checksum and reads the newest full, and Restore
	// swaps the state in copy-on-write.
	tm2 := core.New()
	m2 := persistmap.New[string](tm2)
	reloaded, _ := store.Load()
	m2.Restore(reloaded)
	for _, k := range []int{1, 2, 3, 4} {
		if v, ok, _ := m2.Get(k); ok {
			fmt.Printf("reloaded %d = %s\n", k, v)
		}
	}
	infos, _ := persistmap.Scan(dir)
	fmt.Printf("on disk: %d file(s), kind %s\n", len(infos), infos[0].Kind)

	// Output:
	// checkpoints of 3 then 3 binding(s)
	// reloaded 1 = one
	// reloaded 2 = TWO
	// reloaded 4 = four
	// on disk: 1 file(s), kind full
}

// ExampleStore_Replay is the write-ahead-log walkthrough: attach a
// group-commit WAL to a live map so every committed write-set is fsynced
// before the commit call returns, checkpoint once, "crash", and recover
// the exact committed state from the newest checkpoint plus the WAL tail.
func ExampleStore_Replay() {
	dir, err := os.MkdirTemp("", "persistmap-wal-example-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	tm := core.New()
	m := persistmap.New[string](tm)
	store, err := persistmap.NewStore(dir, persistmap.StringCodec{})
	if err != nil {
		panic(err)
	}
	w, err := store.OpenWAL(persistmap.WALOptions{})
	if err != nil {
		panic(err)
	}
	// Durable mode: Put/Delete return only after the commit's redo record
	// hits disk. Concurrent committers share one fsync (group commit).
	m.AttachWAL(w, true)

	m.Put(1, "one")
	m.Put(2, "two")

	// One checkpoint cycle: pin, full copy at the pin, write, trim the WAL
	// to the checkpoint's version, release.
	pin, _ := tm.PinSnapshot()
	b, _ := m.BackupAt(pin)
	store.WriteFull(b)
	w.TrimTo(b.Version)
	pin.Release()

	m.Put(2, "TWO")
	m.Delete(1)
	m.Put(3, "three")
	w.Close() // "crash": nothing survives but the files

	// Recovery in a fresh process: the newest full checkpoint, then the
	// WAL records past it replayed in commit-version order.
	tm2 := core.New()
	m2 := persistmap.New[string](tm2)
	rs, err := persistmap.NewStore(dir, persistmap.StringCodec{})
	if err != nil {
		panic(err)
	}
	info, err := rs.Replay(m2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("checkpoint at version %d, then %d of %d record(s) replayed from %d segment(s)\n",
		info.CheckpointVersion, info.Applied, info.Records, info.Segments)
	for _, k := range []int{1, 2, 3} {
		if v, ok, _ := m2.Get(k); ok {
			fmt.Printf("recovered %d = %s\n", k, v)
		}
	}

	// Output:
	// checkpoint at version 2, then 3 of 5 record(s) replayed from 1 segment(s)
	// recovered 2 = TWO
	// recovered 3 = three
}
