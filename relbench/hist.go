package main

import "math/bits"

// hist is a log-linear latency histogram: values below 64 ns have a
// bucket each, and every power of two above is cut into 64 buckets, so
// a bucket spans under 1.6% of its values. Recording never allocates,
// which keeps the benchmark's own garbage out of the program's
// collector.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 6
	histBuckets = (64 - subBits) << subBits
)

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	exp := bits.Len64(uint64(v)) - 1
	return (exp-subBits+1)<<subBits + int(uint64(v)>>(exp-subBits)&(1<<subBits-1))
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (float64, float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	return float64(uint64(1<<subBits+i&(1<<subBits-1)) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile, interpolated within its
// bucket, and whether at least ten samples lie beyond that rank — the
// rule for reporting a percentile at all.
func (h *hist) quantile(q float64) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := uint64(float64(h.n)*q + 0.999999)
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, width := bucketRange(i)
		return lo + width*(float64(rank-seen)-0.5)/float64(c), h.n-rank >= 10
	}
	return 0, false
}
