package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"relidev"
	"relidev/internal/block"
	"relidev/internal/workload"
)

// Every workload runs on the same device shape.
const (
	numBlocks = 4096
	blockSize = 512
	// clients is the number of closed-loop clients, all issuing through
	// site 0's device: a file system waits on each block I/O, so a
	// closed loop is the shape of its load.
	clients = 2
	// groupCommitBatch is the flush policy of the segment-store
	// workload: up to 64 writes share one fsync, and the flush leader
	// never waits for joiners (delay 0).
	groupCommitBatch = 64
)

// A benchWorkload is one set of inputs the benchmark runs. Why each
// exists, and which layers it loads, is recorded in README.md.
type benchWorkload struct {
	name      string
	scheme    relidev.Scheme
	sites     int
	tcp       bool    // loopback TCP (OpenRemote) rather than the in-process simnet
	zipfS     float64 // zipf exponent of block choice; 0 picks blocks uniformly
	readRatio float64 // reads per write
	segStores bool    // segment stores under group commit rather than memory stores
	failover  bool    // kill and recover site 2 on a fixed schedule
}

var workloads = map[string]benchWorkload{
	// Voting quorums over the wire on every read and write: the rpcnet
	// codec, connection pool and site handler dominate, and zipf skew
	// adds same-block lock contention.
	"tcp-mixed": {
		name: "tcp-mixed", scheme: relidev.Voting, sites: 3, tcp: true,
		zipfS: 1.1, readRatio: workload.DefaultReadRatio,
	},
	// The CPU-bound point: zero-latency simnet, memory stores, uniform
	// writes only, so controller, OpLocks, simnet fan-out and metering
	// are the whole cost.
	"sim-cpu": {
		name: "sim-cpu", scheme: relidev.Voting, sites: 5,
		readRatio: 0,
	},
	// Available copy over TCP with durable segment stores while site 2
	// is killed and recovered on a fixed schedule: the only workload
	// with appends, fsyncs, store replay, recovery and failure
	// detection. Reads are local, so the wire carries only writes.
	"ac-failover": {
		name: "ac-failover", scheme: relidev.AvailableCopy, sites: 3, tcp: true,
		zipfS: 1.1, readRatio: workload.DefaultReadRatio,
		segStores: true, failover: true,
	},
}

func (w benchWorkload) params() map[string]any {
	p := map[string]any{
		"scheme":      w.scheme.String(),
		"sites":       w.sites,
		"network":     "simnet (zero latency)",
		"blocks":      numBlocks,
		"block_size":  blockSize,
		"clients":     clients,
		"client_site": 0,
		"loop":        "closed",
		"read_ratio":  w.readRatio,
		"access":      "uniform",
		"store":       "memory",
		"flush":       "none (memory store)",
		"metered":     true,
		"warmup":      warmup.String(),
		"slices":      windowSlices,
		"setup_runs":  setupRuns,
		"retry":       fmt.Sprintf("same payload, backoff to %v, give up after %v", maxBackoff, retryDeadline),
	}
	if w.tcp {
		p["network"] = "loopback TCP"
	}
	if w.zipfS > 0 {
		p["access"] = fmt.Sprintf("zipf s=%g", w.zipfS)
	}
	if w.segStores {
		p["store"] = "segment store"
		p["flush"] = fmt.Sprintf("group commit, max batch %d, max delay 0, one fsync per batch", groupCommitBatch)
	}
	if w.failover {
		p["failover"] = fmt.Sprintf("site 2 killed every %v, down %v, then reopened comatose and recovered", failoverPeriod, failoverDown)
	}
	return p
}

// An op is one generated block access: the block index shifted left
// once, with the low bit set for a write.
type op uint32

func (o op) index() block.Index { return block.Index(o >> 1) }
func (o op) write() bool        { return o&1 == 1 }

// opsPerClient is the length of each client's generated op list; a
// client cycles through it if a run outlasts it.
const opsPerClient = 1 << 19

// generate makes each client's op list from the seed alone, before any
// timing starts, so the device sees only the generated accesses.
func generate(w benchWorkload, seed int64) ([][]op, error) {
	lists := make([][]op, clients)
	for c := range lists {
		s := seed*1_000_003 + int64(c)*7919
		var pat workload.Pattern
		var err error
		if w.zipfS > 0 {
			pat, err = workload.NewZipf(numBlocks, w.zipfS, s)
		} else {
			pat, err = workload.NewUniform(numBlocks, s)
		}
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(pat, w.readRatio, s+1)
		if err != nil {
			return nil, err
		}
		ops := make([]op, opsPerClient)
		for i := range ops {
			o := gen.Next()
			ops[i] = op(o.Index) << 1
			if o.Kind == workload.Write {
				ops[i] |= 1
			}
		}
		lists[c] = ops
	}
	return lists, nil
}

// Payload layout: block index and per-block write sequence number, then
// a fill byte derived from both repeated to the end of the block, so a
// torn or misdirected block fails the check.
func encodePayload(buf []byte, idx block.Index, seq uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(idx))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	f := fill(idx, seq)
	for i := 16; i < len(buf); i++ {
		buf[i] = f
	}
}

func fill(idx block.Index, seq uint64) byte { return byte(uint64(idx)*31 + seq*131 + 7) }

// decodePayload returns the sequence number a block holds: 0 for a
// block never written (all zeros), or an error when the bytes are not a
// payload written to this block.
func decodePayload(data []byte, idx block.Index) (uint64, error) {
	if len(data) != blockSize {
		return 0, fmt.Errorf("block %d: %d bytes, want %d", idx, len(data), blockSize)
	}
	seq := binary.LittleEndian.Uint64(data[8:16])
	gotIdx := binary.LittleEndian.Uint64(data[0:8])
	if seq == 0 {
		for _, b := range data {
			if b != 0 {
				return 0, fmt.Errorf("block %d: sequence 0 but non-zero bytes", idx)
			}
		}
		return 0, nil
	}
	if gotIdx != uint64(idx) {
		return 0, fmt.Errorf("block %d: holds a payload written to block %d", idx, gotIdx)
	}
	f := fill(idx, seq)
	for i := 16; i < len(data); i++ {
		if data[i] != f {
			return 0, fmt.Errorf("block %d: torn payload of write %d at byte %d", idx, seq, i)
		}
	}
	return seq, nil
}

// never marks a write that has not ended.
const never = int64(1<<63 - 1)

// writeRec is one write issued to a block: its sequence number, when it
// was first issued and when its last attempt returned, and whether it
// was acknowledged. A write that was never acknowledged may or may not
// have taken effect.
type writeRec struct {
	seq        uint64
	start, end int64
	acked      bool
}

// deadRec is a write some later acknowledged write replaced, and when
// that write was acknowledged.
type deadRec struct {
	seq      uint64
	replaced int64
}

type blockLog struct {
	mu      sync.Mutex
	issued  uint64
	live    []writeRec // writes no acknowledged write has replaced
	dead    []deadRec  // replaced writes a running read may still return
	firstAc int64      // when the first write was acknowledged; 0 while none
}

// checker holds every block's write history and decides whether a read
// result is one the device may return: the last acknowledged write, or
// a write still in flight (or never acknowledged). A read over [t0, t1]
// may return write r only if no acknowledged write that began after r
// ended had itself been acknowledged before t0.
type checker struct {
	blocks [numBlocks]blockLog
	// reading holds, per client, when its running read began: 0 while it
	// runs none, starting while it is taking the time. A replaced write
	// is forgotten once every running read began after it was replaced,
	// however long a read stalls.
	reading [clients]atomic.Int64
}

const starting = 1

// readStart marks the start of a read by client slot and returns its
// start time; readEnd clears it.
func (c *checker) readStart(slot int) int64 {
	c.reading[slot].Store(starting)
	t0 := nowNs()
	c.reading[slot].Store(t0)
	return t0
}

func (c *checker) readEnd(slot int) { c.reading[slot].Store(0) }

// oldestRead returns a time no running read began before, or false
// while a read is taking its start time.
func (c *checker) oldestRead() (int64, bool) {
	oldest := nowNs()
	for i := range c.reading {
		switch v := c.reading[i].Load(); {
		case v == starting:
			return 0, false
		case v != 0 && v < oldest:
			oldest = v
		}
	}
	return oldest, true
}

// begin issues the next write of block idx, started at time now.
func (c *checker) begin(idx block.Index, now int64) uint64 {
	b := &c.blocks[idx]
	b.mu.Lock()
	b.issued++
	seq := b.issued
	b.live = append(b.live, writeRec{seq: seq, start: now, end: never})
	b.mu.Unlock()
	return seq
}

// end records that write seq of block idx returned for the last time at
// now, acknowledged or not, and retires the writes it replaced.
func (c *checker) end(idx block.Index, seq uint64, now int64, acked bool) {
	b := &c.blocks[idx]
	b.mu.Lock()
	defer b.mu.Unlock()
	var w writeRec
	for i := range b.live {
		if b.live[i].seq == seq {
			b.live[i].end, b.live[i].acked = now, acked
			w = b.live[i]
		}
	}
	if !acked {
		return
	}
	if b.firstAc == 0 {
		b.firstAc = now
	}
	if oldest, ok := c.oldestRead(); ok {
		dead := b.dead[:0]
		for _, d := range b.dead {
			if d.replaced > oldest {
				dead = append(dead, d)
			}
		}
		b.dead = dead
	}
	live := b.live[:0]
	for _, r := range b.live {
		if r.end < w.start {
			b.dead = append(b.dead, deadRec{seq: r.seq, replaced: now})
			continue
		}
		live = append(live, r)
	}
	b.live = live
}

// valid reports whether a read of block idx that began at t0 may return
// write seq (0: the block's initial zeros).
func (c *checker) valid(idx block.Index, seq uint64, t0 int64) bool {
	b := &c.blocks[idx]
	b.mu.Lock()
	defer b.mu.Unlock()
	if seq == 0 {
		return b.firstAc == 0 || b.firstAc > t0
	}
	for _, r := range b.live {
		if r.seq == seq {
			return true
		}
	}
	for _, d := range b.dead {
		if d.seq == seq {
			return d.replaced > t0
		}
	}
	return false
}
