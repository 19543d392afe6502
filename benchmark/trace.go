package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// epoch anchors every timestamp the benchmark takes; now() is one
// monotonic clock read.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// layer names one kind of span: a call from the benchmark into one
// layer's public functions. lOp is the store operation itself, the root
// of every op's span tree; its self time is the benchmark's own glue.
type layer uint8

const (
	lOp layer = iota
	lRoute
	lAtomically
	lCacheGet
	lCachePut
	lMapGet
	lMapPut
	lRange
	lAtomicallyAll
	lAckWait
	numLayers
)

var layerNames = [numLayers]string{
	"bench.op", "shard.route", "core.atomically", "cache.get", "cache.put",
	"persistmap.get", "persistmap.put", "txstruct.range", "shard.atomically_all",
	"walsync.ack_wait",
}

// span is one timed call. parent indexes the enclosing span of the same
// op, -1 for the root.
type span struct {
	name       layer
	parent     int16
	start, end int64
}

// rawSpan is a span kept verbatim for the trace file.
type rawSpan struct {
	op uint64
	id int16
	span
	class opClass
}

const (
	maxSpansPerOp = 256     // retries beyond this are counted in dropped
	sampleEvery   = 64      // one op in sampleEvery keeps its raw spans
	sampleCap     = 200_000 // raw spans kept per run, split over clients
)

// tracer is one client's span recorder. While off, begin and end are a
// branch each. It is owned by its client goroutine; the coordinator reads
// it only after the client has stopped.
type tracer struct {
	on      bool
	cur     int16
	spans   []span
	dropped uint64
	opSeq   uint64

	*folded // nil in a tracer that is never switched on

	sample    []rawSpan
	sampleMax int
}

// folded is what a traced phase leaves behind, besides the raw sample.
type folded struct {
	dur     [numLayers]hist             // duration of each span, by name
	self    [numClasses][numLayers]hist // per op: summed self time per layer, 0 when untouched
	total   [numClasses]hist            // traced op latency
	atom    hist                        // per op that called Atomically: its self time
	putSelf [2]hist                     // core.atomically self of puts; [1] = home shard pinned at op start
}

func (f *folded) merge(o *folded) {
	for l := range f.dur {
		f.dur[l].merge(&o.dur[l])
		for c := range f.self {
			f.self[c][l].merge(&o.self[c][l])
		}
	}
	for c := range f.total {
		f.total[c].merge(&o.total[c])
	}
	f.atom.merge(&o.atom)
	f.putSelf[0].merge(&o.putSelf[0])
	f.putSelf[1].merge(&o.putSelf[1])
}

func newTracer(sampleMax int) *tracer {
	return &tracer{cur: -1, spans: make([]span, 0, maxSpansPerOp), folded: new(folded), sampleMax: sampleMax}
}

func (t *tracer) beginAt(l layer, at int64) int {
	if !t.on {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: l, parent: t.cur, start: at})
	t.cur = int16(i)
	return i
}

func (t *tracer) begin(l layer) int {
	if !t.on {
		return -1
	}
	return t.beginAt(l, now())
}

func (t *tracer) endAt(i int, at int64) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = at
	t.cur = s.parent
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.endAt(i, now())
}

// selfTimes fills self[i] with span i's duration minus the durations of
// its direct children.
func selfTimes(spans []span, self []int64) {
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
}

// fold closes the current op: every span's duration and every layer's
// self time go into the histograms, and one op in sampleEvery keeps its
// spans verbatim.
func (t *tracer) fold(class opClass, pinned bool) {
	var selfBuf [maxSpansPerOp]int64
	self := selfBuf[:len(t.spans)]
	selfTimes(t.spans, self)
	var perLayer [numLayers]int64
	var touched [numLayers]bool
	for i, s := range t.spans {
		t.dur[s.name].record(s.end - s.start)
		perLayer[s.name] += self[i]
		touched[s.name] = true
	}
	for l := layer(0); l < numLayers; l++ {
		t.self[class][l].record(perLayer[l])
	}
	t.total[class].record(t.spans[0].end - t.spans[0].start)
	if touched[lAtomically] {
		t.atom.record(perLayer[lAtomically])
		if class == classPut {
			idx := 0
			if pinned {
				idx = 1
			}
			t.putSelf[idx].record(perLayer[lAtomically])
		}
	}
	if t.opSeq%sampleEvery == 0 && len(t.sample)+len(t.spans) <= t.sampleMax {
		for i, s := range t.spans {
			t.sample = append(t.sample, rawSpan{op: t.opSeq, id: int16(i), span: s, class: class})
		}
	}
	t.opSeq++
	t.spans = t.spans[:0]
	t.cur = -1
}

// writeTrace writes every client's sampled spans as one JSON document.
func writeTrace(path, workload string, clients []*client) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"sample_every\":%d,\"time_unit\":\"ns since process start\",\"spans\":[", workload, sampleEvery)
	first := true
	for _, c := range clients {
		for _, s := range c.tr.sample {
			if !first {
				w.WriteByte(',')
			}
			first = false
			name := layerNames[s.name]
			if s.name == lOp {
				name = classNames[s.class]
			}
			fmt.Fprintf(w, "\n{\"op\":\"c%d-%d\",\"id\":%d,\"parent\":%d,\"layer\":%q,\"name\":%q,\"start\":%d,\"end\":%d}",
				c.id, s.op, s.id, s.parent, layerNames[s.name], name, s.start, s.end)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
