package obs

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Histogram shard and bucket layout. Buckets are exponential with
// nanosecond bounds: bucket i holds observations in
// (1024<<(i-1), 1024<<i] ns — roughly 1µs up to ~68s — with bucket 0
// catching everything at or below 1µs and a final overflow bucket
// (upper bound rendered as +Inf). The layout is fixed and bounded so a
// histogram is a flat block of atomics with no allocation on the
// record path.
const (
	histShardBits = 3
	histShards    = 1 << histShardBits
	histBuckets   = 28
	bucketBase    = 1024 // ns upper bound of bucket 0
)

// A BucketCount is one histogram bucket in a snapshot. UpperNs is the
// inclusive upper bound in nanoseconds; -1 marks the overflow bucket.
type BucketCount struct {
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// histShard is one shard's counters, padded to its own cache lines so
// concurrent recorders on different shards do not false-share. The
// shard's observation count is the sum of its buckets, so recording
// takes two atomic adds.
type histShard struct {
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
	_       [64 - (1+histBuckets)*8%64]byte
}

// A Histogram records latency observations into bounded exponential
// buckets, sharded like simnet's §5 counters: each recorder picks a
// shard from a hash of its stack address (so concurrent recorders
// spread across shards without sharing a cursor), and snapshots merge
// the shards. The zero value is
// ready to use; a nil pointer discards observations.
type Histogram struct {
	shards [histShards]histShard
}

// bucketFor maps an observation to its bucket index.
func bucketFor(ns int64) int {
	if ns <= bucketBase {
		return 0
	}
	b := bits.Len64(uint64(ns-1) / bucketBase)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// shardIndex picks the recording shard by hashing the caller's stack
// address. A goroutine recording from one call site keeps landing on
// the same shard, so its cache lines stay with the core it runs on,
// while distinct goroutines — distinct stacks — spread over the
// shards. The address is multiplied by the 64-bit golden ratio and the
// top bits taken: goroutine stacks are aligned to their size, so the
// low address bits repeat across goroutines (taking them directly
// collapsed every grown stack onto one shard), but a Fibonacci hash
// spreads addresses that differ only in their high bits.
func shardIndex() int {
	var probe byte
	return int(uint64(uintptr(unsafe.Pointer(&probe))) * 0x9E3779B97F4A7C15 >> (64 - histShardBits))
}

// Observe records one latency observation in nanoseconds. Negative
// observations are clamped to zero.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	s := &h.shards[shardIndex()]
	s.sum.Add(uint64(ns))
	s.buckets[bucketFor(ns)].Add(1)
}

// snapshotPoint merges the shards into a HistogramPoint (name and
// labels are filled by the registry). Merged totals equal the sum of
// per-shard records: the merge only adds.
func (h *Histogram) snapshotPoint() HistogramPoint {
	var p HistogramPoint
	if h == nil {
		return p
	}
	var buckets [histBuckets]uint64
	for i := range h.shards {
		s := &h.shards[i]
		p.Sum += s.sum.Load()
		for b := range s.buckets {
			buckets[b] += s.buckets[b].Load()
		}
	}
	for b, c := range buckets {
		p.Count += c
		if c == 0 {
			continue
		}
		upper := int64(bucketBase) << uint(b)
		if b == histBuckets-1 {
			upper = -1 // overflow: +Inf
		}
		p.Buckets = append(p.Buckets, BucketCount{UpperNs: upper, Count: c})
	}
	return p
}

// shardTotals exposes per-shard (count, sum) pairs for the merge
// property test.
func (h *Histogram) shardTotals() (counts, sums [histShards]uint64) {
	for i := range h.shards {
		for b := range h.shards[i].buckets {
			counts[i] += h.shards[i].buckets[b].Load()
		}
		sums[i] = h.shards[i].sum.Load()
	}
	return counts, sums
}
