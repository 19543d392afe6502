package main

import (
	"math"
	"math/bits"
)

// Histogram layout: values below histLinear land in their own bucket;
// above, each power-of-two octave is cut into histSub equal buckets, so a
// bucket is at most 1/histSub (1.6 %) of its lower bound wide. Values are
// nanoseconds; anything past 2^histMaxExp ns (~18 min) saturates into the
// last bucket, far beyond any run's watchdog.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histLinear  = 2 * histSub
	histMaxExp  = 40
	histBuckets = histLinear + (histMaxExp-histSubBits-1)*histSub
)

// hist is a fixed-size log-linear histogram. Record touches one word and
// never allocates; one client owns each hist while it is written, and
// hists are merged after the clients have stopped.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

func histIndex(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return histLinear + (e-histSubBits-1)*histSub + sub
}

// histValue is the midpoint of bucket i, the value percentiles report.
func histValue(i int) float64 {
	if i < histLinear {
		return float64(i)
	}
	e := (i-histLinear)/histSub + histSubBits + 1
	sub := (i - histLinear) % histSub
	width := uint64(1) << (uint(e) - histSubBits)
	lower := uint64(1)<<uint(e) + uint64(sub)*width
	return float64(lower) + float64(width)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1): the value
// of the bucket holding the ceil(q*n)-th smallest sample. ok is false for
// an empty histogram.
func (h *hist) percentile(q float64) (v float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q*float64(h.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return histValue(i), true
		}
	}
	return histValue(histBuckets - 1), true
}
