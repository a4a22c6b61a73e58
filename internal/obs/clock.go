package obs

import (
	"sync/atomic"
	"time"
)

// A Clock supplies timestamps (nanoseconds) for trace events and
// latency measurements. Injecting the clock keeps traces deterministic
// under seeded replay: the chaos and simulation harnesses pass a
// LogicalClock whose readings depend only on call order, never on the
// wall clock, so enabling tracing cannot perturb a replay digest.
type Clock func() int64

// wallAnchor is the process's wall-clock anchor: WallClock reports
// wallAnchorNs plus the monotonic time elapsed since it.
var (
	//relidev:allow nondeterminism: the anchor of the one sanctioned wall-clock source; replay-deterministic harnesses inject a LogicalClock instead
	wallAnchor   = time.Now()
	wallAnchorNs = wallAnchor.UnixNano()
)

// WallClock reads the real time in Unix nanoseconds. It is the right
// clock for live servers (blockserver) and throughput benchmarks, and
// the wrong one for anything replay-deterministic — detcheck forbids
// further wall-clock reads anywhere else in this package.
//
// A reading is the process's wall anchor plus the monotonic time since
// it: one monotonic clock read where time.Now takes two (wall and
// monotonic). Readings never step backwards; they follow the anchor's
// wall time and do not pick up later adjustments of the system clock.
func WallClock() int64 {
	//relidev:allow nondeterminism: the one sanctioned wall-clock source; replay-deterministic harnesses inject a LogicalClock instead of this
	return wallAnchorNs + int64(time.Since(wallAnchor))
}

// LogicalClock is a deterministic Clock: every reading advances an
// atomic counter by a fixed step, so timestamps are a pure function of
// the number of prior readings. Latencies measured against it count
// intervening clock reads, not elapsed time — meaningless as durations,
// but stable across replays.
type LogicalClock struct {
	t    atomic.Int64
	step int64
}

// NewLogicalClock returns a LogicalClock advancing by step nanoseconds
// per reading (step <= 0 means 1).
func NewLogicalClock(step int64) *LogicalClock {
	if step <= 0 {
		step = 1
	}
	return &LogicalClock{step: step}
}

// Now implements Clock.
func (c *LogicalClock) Now() int64 { return c.t.Add(c.step) }
