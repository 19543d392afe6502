package core

// store is the shared write engine under TypedCell.Store and StoreFinal: it
// enforces semantics, seals elastic parses, and buffers the encoded value
// in the write set (redo log), deduplicating per cell. final marks the
// write as the last one its cell will see (TypedCell.StoreFinal); the
// latest store to a cell decides.
func (tx *Tx) store(c *cell, v vbox, final bool) {
	tx.checkUsable()
	tx.checkKilled()
	if tx.sem == Snapshot {
		panic(permanentError{err: &SemanticsError{Sem: Snapshot, Op: "store"}})
	}
	tx.step()
	if raceEnabled {
		tx.tm.privCheck(c)
	}
	if tx.sem == Elastic && !tx.hasWrites {
		tx.sealElastic()
	}
	tx.hasWrites = true
	if i := tx.findWrite(c); i >= 0 {
		tx.writes[i].val = v
		tx.writes[i].final = final
	} else {
		tx.writes = append(tx.writes, writeEntry{cell: c, val: v, final: final})
		if len(tx.writes) > writeScanMax {
			tx.windex.add(tx.writes)
		}
	}
	if tx.tm.recorder != nil {
		tx.record(Event{Kind: EventWrite, TxID: tx.id.Load(), Attempt: tx.attempt,
			Sem: tx.sem, Cell: c.id})
	}
}

// writeScanMax is the largest write set searched by a linear scan. List,
// set and cache operations — and a tree put, which writes only what it
// changes — buffer a handful of entries, and scanning those beats hashing;
// past it every access goes through the index, so a bulk transaction
// (a batched load, ReplaceAllTx, a replayed WAL chunk) costs the same per
// access as a small one.
const writeScanMax = 16

// findWrite returns the position of c's entry in the write set, or -1.
// Callers on the read path skip it when the write set is empty.
func (tx *Tx) findWrite(c *cell) int {
	ws := tx.writes
	if len(ws) > writeScanMax {
		return tx.windex.find(c)
	}
	for i := range ws {
		if ws[i].cell == c {
			return i
		}
	}
	return -1
}

// writeIndex is the open-addressed (linear probing) index from a cell to
// its position in the write set, kept only while the write set is longer
// than writeScanMax. It lives in the pooled handle, so a warm bulk
// transaction allocates nothing for it. Slots are stamped with a
// generation: starting over — a new attempt outgrowing the scan, or
// sortWrites permuting the positions — is one increment, not a sweep.
type writeIndex struct {
	slots []writeSlot // length zero or a power of two
	gen   uint32
	n     int // entries of the current generation
}

type writeSlot struct {
	cell *cell
	pos  uint32
	gen  uint32
}

// home is the first slot probed for c: Fibonacci hashing of the cell's
// identity, which is dense within an allocation block.
func (x *writeIndex) home(c *cell) int {
	return int((c.id * 0x9e3779b97f4a7c15) >> 32 & uint64(len(x.slots)-1))
}

// find returns c's position in the write set, or -1. Only asked while the
// write set is longer than writeScanMax, when the index holds all of it.
func (x *writeIndex) find(c *cell) int {
	for i := x.home(c); ; i = (i + 1) & (len(x.slots) - 1) {
		s := &x.slots[i]
		if s.gen != x.gen {
			return -1
		}
		if s.cell == c {
			return int(s.pos)
		}
	}
}

// add indexes the entry just appended to ws. The first add after the
// write set outgrew the scan, and any add that would fill the table past
// half, (re)builds the index from ws instead.
func (x *writeIndex) add(ws []writeEntry) {
	pos := len(ws) - 1
	if pos == writeScanMax || 2*(x.n+1) > len(x.slots) {
		x.rebuild(ws)
		return
	}
	x.insert(ws[pos].cell, pos)
}

// rebuild starts a new generation holding every entry of ws, in a table
// at least twice as long.
func (x *writeIndex) rebuild(ws []writeEntry) {
	size := max(len(x.slots), 4*writeScanMax)
	for size < 2*len(ws) {
		size *= 2
	}
	if size != len(x.slots) {
		x.slots = make([]writeSlot, size)
		x.gen = 0
	}
	if x.gen++; x.gen == 0 {
		// The stamp wrapped: slots of 2^32 generations ago would read
		// as current.
		clear(x.slots)
		x.gen = 1
	}
	x.n = 0
	for i := range ws {
		x.insert(ws[i].cell, i)
	}
}

func (x *writeIndex) insert(c *cell, pos int) {
	i := x.home(c)
	for x.slots[i].gen == x.gen {
		i = (i + 1) & (len(x.slots) - 1)
	}
	x.slots[i] = writeSlot{cell: c, pos: uint32(pos), gen: x.gen}
	x.n++
}

// release prepares the index for the handle's stay in the pool: a table
// the finished transaction used is dropped when oversized and otherwise
// cleared, so an idle handle pins no cells through it.
func (x *writeIndex) release() {
	if x.n == 0 {
		return
	}
	if len(x.slots) > 4*maxPooledWrites {
		x.slots = nil
	} else {
		clear(x.slots)
	}
	x.gen, x.n = 0, 0
}

// sealElastic converts the elastic parse phase into the final classic
// piece: the piece's read version is the clock now, and the window must be
// valid at this instant (it seeds the piece's read set). Subsequent reads
// behave classically against the piece read version, and commit validates
// window plus reads exactly like a classic transaction.
func (tx *Tx) sealElastic() {
	tx.rv = tx.tm.clock.Now()
	if !tx.windowValid() {
		tx.abort(AbortWindowInvalid)
	}
	tx.reads = append(tx.reads, tx.window...)
}
