// Command persistctl inspects and maintains persistmap full checkpoints
// and write-ahead logs from outside the process that wrote them — the
// operational face of the durable persistence pipeline. Checkpoints and
// WAL segments are self-describing (magic, format version, codec name,
// CRC32) and their record framing is codec-agnostic, so no subcommand
// needs knowledge of the value type: info and verify read headers and
// framing only.
//
// Usage:
//
//	persistctl info   <file|dir>...   newest intact full + WAL segments, checksums verified
//	persistctl verify <file|dir>...   full structural walk of every record (.pmb and .wal)
//	persistctl clean  <dir>...        remove orphaned checkpoint temp files (.pmb.tmp)
//
// Exit codes classify what was found, so scripts can branch on damage
// severity without parsing output:
//
//	0  clean — every file sealed and intact
//	1  torn tail — truncation-shaped damage only: an intact prefix then
//	   a record cut off by end of file. The legal residue of a power cut
//	   or poisoned WAL daemon; recovery replays the intact prefix.
//	2  corrupt — full-length bytes failing their checksum or structure
//	   (a bit flip, never a legal crash shape), or a checkpoint file this
//	   build does not read (an older build's incremental diff).
//	3  operational error — bad usage, missing path, I/O failure.
//
// info and verify keep walking after damage and report everything they
// saw; the exit code reflects the worst finding. Orphaned temp files are
// reported by both (and removed by clean) but never affect the code —
// they are inert residue, invisible to every loader.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/persistmap"
	"repro/internal/persistmap/walsync"
)

// Exit codes: the damage-severity contract documented above.
const (
	exitOK      = 0
	exitTorn    = 1
	exitCorrupt = 2
	exitUsage   = 3
)

// isWAL reports whether path names a write-ahead-log segment.
func isWAL(path string) bool { return strings.HasSuffix(path, walsync.Ext) }

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "persistctl:", err)
	}
	os.Exit(code)
}

// damage aggregates per-file findings into the exit-code contract.
type damage struct {
	torn, corrupt int
}

func (d *damage) add(k persistmap.DamageKind) {
	switch k {
	case persistmap.DamageTorn:
		d.torn++
	case persistmap.DamageCorrupt:
		d.corrupt++
	}
}

// classify maps a read/verify error onto the damage taxonomy: torn-tail
// errors are the legal crash shape, everything else is corruption.
func classify(err error) persistmap.DamageKind {
	if err == nil {
		return persistmap.DamageNone
	}
	if errors.Is(err, persistmap.ErrTornTail) {
		return persistmap.DamageTorn
	}
	return persistmap.DamageCorrupt
}

// result converts the aggregate into the final (code, error) pair.
func (d *damage) result() (int, error) {
	switch {
	case d.corrupt > 0:
		return exitCorrupt, fmt.Errorf("%d corrupt file(s)", d.corrupt)
	case d.torn > 0:
		return exitTorn, fmt.Errorf("%d file(s) with a torn tail", d.torn)
	default:
		return exitOK, nil
	}
}

func run(args []string, out io.Writer) (int, error) {
	if len(args) < 1 {
		return exitUsage, fmt.Errorf("usage: persistctl info|verify|clean <path>... (exit: 0 clean, 1 torn tail, 2 corrupt, 3 error)")
	}
	cmd, paths := args[0], args[1:]
	if len(paths) == 0 {
		return exitUsage, fmt.Errorf("%s: no paths given", cmd)
	}
	switch cmd {
	case "info":
		var dmg damage
		err := forEachFile(paths, func(path string) error {
			infoFile(out, path, &dmg)
			return nil
		}, func(dir string) error {
			return dirInfo(out, dir, &dmg)
		})
		if err != nil {
			return exitUsage, err
		}
		return dmg.result()
	case "verify":
		var dmg damage
		n := 0
		err := forEachFile(paths, func(path string) error {
			n++
			verifyFile(out, path, &dmg)
			return nil
		}, nil)
		if err != nil {
			return exitUsage, err
		}
		fmt.Fprintf(out, "%d file(s) verified, %d torn, %d corrupt\n", n, dmg.torn, dmg.corrupt)
		return dmg.result()
	case "clean":
		removed := 0
		for _, dir := range paths {
			orphans, err := persistmap.Orphans(dir)
			if err != nil {
				return exitUsage, err
			}
			for _, o := range orphans {
				if err := os.Remove(o); err != nil {
					return exitUsage, err
				}
				fmt.Fprintf(out, "removed %s\n", o)
				removed++
			}
		}
		fmt.Fprintf(out, "%d orphaned temp file(s) removed\n", removed)
		return exitOK, nil
	default:
		return exitUsage, fmt.Errorf("unknown command %q (want info, verify or clean)", cmd)
	}
}

// infoFile prints one file's header line, tolerant of damage: a torn or
// corrupt file is reported with its classification instead of aborting
// the listing.
func infoFile(out io.Writer, path string, dmg *damage) {
	if isWAL(path) {
		wi, err := persistmap.ReadWALInfo(path)
		if err != nil {
			k := classify(err)
			dmg.add(k)
			fmt.Fprintf(out, "%s: %s: %v\n", path, k, err)
			return
		}
		dmg.add(wi.Damage)
		fmt.Fprintf(out, "%s\n", wi)
		return
	}
	info, err := persistmap.ReadInfo(path)
	if err != nil {
		k := classify(err)
		dmg.add(k)
		fmt.Fprintf(out, "%s: %s: %v\n", path, k, err)
		return
	}
	fmt.Fprintf(out, "%s: %s\n", path, info)
}

// verifyFile walks one file strictly and prints its verdict.
func verifyFile(out io.Writer, path string, dmg *damage) {
	if isWAL(path) {
		wi, err := persistmap.VerifyWALSegment(path)
		if err != nil {
			k := classify(err)
			dmg.add(k)
			fmt.Fprintf(out, "%s: %s: %v\n", path, k, err)
			return
		}
		fmt.Fprintf(out, "%s: ok (wal seq %d, %d record(s))\n", path, wi.Seq, wi.Records)
		return
	}
	info, err := persistmap.VerifyFile(path)
	if err != nil {
		k := classify(err)
		dmg.add(k)
		fmt.Fprintf(out, "%s: %s: %v\n", path, k, err)
		return
	}
	fmt.Fprintf(out, "%s: ok (%s)\n", path, info)
}

// forEachFile applies file to every checkpoint and WAL file named by
// paths, expanding directories. onDir, when set, replaces per-file
// handling for directory arguments (info prints what recovery would read
// instead of a flat listing).
func forEachFile(paths []string, file func(string) error, onDir func(string) error) error {
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		if !st.IsDir() {
			if err := file(p); err != nil {
				return err
			}
			continue
		}
		if onDir != nil {
			if err := onDir(p); err != nil {
				return err
			}
			continue
		}
		infos, corrupt, err := persistmap.ScanLax(p)
		if err != nil {
			return err
		}
		segs, err := walsync.ScanSegments(p)
		if err != nil {
			return err
		}
		if len(infos) == 0 && len(corrupt) == 0 && len(segs) == 0 {
			return fmt.Errorf("%s: no checkpoint or wal files", p)
		}
		for _, fi := range infos {
			if err := file(fi.Path); err != nil {
				return err
			}
		}
		for _, cf := range corrupt {
			if err := file(cf.Path); err != nil {
				return err
			}
		}
		for _, sg := range segs {
			if err := file(sg.Path); err != nil {
				return err
			}
		}
	}
	return nil
}

// dirInfo prints what recovery would read from dir: the newest intact
// full checkpoint, then the WAL segments, then orphaned temp files.
// Damaged checkpoint files are reported and count toward the exit code;
// the newest full is picked among the intact ones (the same fallback
// Replay uses).
func dirInfo(out io.Writer, dir string, dmg *damage) error {
	infos, corrupt, err := persistmap.ScanLax(dir)
	if err != nil {
		return err
	}
	segs, err := walsync.ScanSegments(dir)
	if err != nil {
		return err
	}
	if len(infos) == 0 && len(corrupt) == 0 && len(segs) == 0 {
		return fmt.Errorf("%s: no checkpoint or wal files", dir)
	}
	if len(infos) > 0 {
		fi := infos[len(infos)-1]
		fmt.Fprintf(out, "%s: %s\n", fi.Path, fi)
	}
	for _, cf := range corrupt {
		dmg.add(persistmap.DamageCorrupt)
		fmt.Fprintf(out, "%s: corrupt: %v\n", cf.Path, cf.Err)
	}
	for _, sg := range segs {
		wi, err := persistmap.ReadWALInfo(sg.Path)
		if err != nil {
			k := classify(err)
			dmg.add(k)
			fmt.Fprintf(out, "%s: %s: %v\n", sg.Path, k, err)
			continue
		}
		dmg.add(wi.Damage)
		fmt.Fprintf(out, "%s\n", wi)
	}
	orphans, err := persistmap.Orphans(dir)
	if err != nil {
		return err
	}
	for _, o := range orphans {
		fmt.Fprintf(out, "%s: orphaned temp file (persistctl clean removes it)\n", o)
	}
	return nil
}
