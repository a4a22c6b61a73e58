package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"relidev"
	"relidev/internal/block"
)

// Failover schedule of ac-failover, from the start of a pass: site 2 is
// killed at each multiple of failoverPeriod (from half a period in),
// stays down failoverDown, then is reopened and recovered.
const (
	failoverPeriod = 400 * time.Millisecond
	failoverDown   = 100 * time.Millisecond
)

// A call that fails is retried with the same payload, as a block layer
// retries an I/O error: at once, then after a backoff doubling up to
// maxBackoff. The operation fails only when it has not succeeded within
// retryDeadline.
const (
	maxBackoff    = 20 * time.Millisecond
	retryDeadline = 5 * time.Second
)

// clientStats is what one client observed.
type clientStats struct {
	// reads and writes hold the latency of each completed operation,
	// per slice of the measured window it completed in; empty when the
	// run is not recorded.
	reads, writes  []hist
	ops, failedOps uint64 // operations issued / given up on
	calls, failed  uint64 // device calls made / that returned an error
	badReads       uint64 // reads the checker rejected
	firstBad       string
}

func (s *clientStats) merge(o clientStats) {
	if len(s.reads) < len(o.reads) {
		s.reads, s.writes = make([]hist, len(o.reads)), make([]hist, len(o.reads))
	}
	for k := range o.reads {
		s.reads[k].merge(&o.reads[k])
		s.writes[k].merge(&o.writes[k])
	}
	s.ops += o.ops
	s.failedOps += o.failedOps
	s.calls += o.calls
	s.failed += o.failed
	s.badReads += o.badReads
	if s.firstBad == "" {
		s.firstBad = o.firstBad
	}
}

// client runs one closed-loop client: it issues its next operation only
// when the previous one has completed.
type client struct {
	slot int // the client's index, its slot in the checker
	dev  relidev.Device
	chk  *checker
	ops  []op
	next int
	buf  []byte
	// start and sliceNs place a completed operation in its slice of the
	// measured window; slices is 0 when latencies are not recorded.
	start, sliceNs int64
	slices         int
}

// run issues operations until stop is set.
func (c *client) run(ctx context.Context, stop *atomic.Bool) clientStats {
	st := clientStats{reads: make([]hist, c.slices), writes: make([]hist, c.slices)}
	for !stop.Load() {
		o := c.ops[c.next%len(c.ops)]
		c.next++
		c.do(ctx, o.index(), o.write(), &st)
	}
	return st
}

func (c *client) do(ctx context.Context, idx block.Index, write bool, st *clientStats) {
	st.ops++
	var t0 int64
	var seq uint64
	if write {
		t0 = nowNs()
		seq = c.chk.begin(idx, t0)
		encodePayload(c.buf, idx, seq)
	} else {
		t0 = c.chk.readStart(c.slot)
		defer c.chk.readEnd(c.slot)
	}
	backoff := time.Duration(0)
	for {
		st.calls++
		var err error
		if write {
			err = c.dev.WriteBlock(ctx, idx, c.buf)
		} else {
			var data []byte
			if data, err = c.dev.ReadBlock(ctx, idx); err == nil {
				if bad := c.check(idx, data, t0); bad != nil {
					st.badReads++
					st.failedOps++
					if st.firstBad == "" {
						st.firstBad = bad.Error()
					}
					return
				}
			}
		}
		now := nowNs()
		if err == nil {
			if write {
				c.chk.end(idx, seq, now, true)
			}
			if c.slices > 0 {
				k := min(int((now-c.start)/c.sliceNs), c.slices-1)
				if write {
					st.writes[k].add(now - t0)
				} else {
					st.reads[k].add(now - t0)
				}
			}
			return
		}
		st.failed++
		if time.Duration(now-t0) >= retryDeadline {
			if write {
				c.chk.end(idx, seq, now, false)
			}
			st.failedOps++
			if st.firstBad == "" {
				st.firstBad = fmt.Sprintf("block %d: gave up after %v: %v", idx, retryDeadline, err)
			}
			return
		}
		time.Sleep(backoff)
		backoff = min(2*backoff+time.Millisecond, maxBackoff)
	}
}

// check returns an error when data is not a value the device may return
// for a read of block idx that began at t0.
func (c *client) check(idx block.Index, data []byte, t0 int64) error {
	seq, err := decodePayload(data, idx)
	if err != nil {
		return err
	}
	if !c.chk.valid(idx, seq, t0) {
		return fmt.Errorf("block %d: read returned write %d, which an acknowledged write had replaced before the read began", idx, seq)
	}
	return nil
}

// runClients runs every client for d. With slices > 0 it records each
// operation's latency in the slice of d it completed in, and returns
// each slice's wall and process CPU time.
func runClients(ctx context.Context, cs []*client, d time.Duration, slices int) (clientStats, []time.Duration, []time.Duration) {
	var stop atomic.Bool
	out := make([]clientStats, len(cs))
	t0 := nowNs()
	n := max(slices, 1)
	for _, c := range cs {
		c.start, c.sliceNs, c.slices = t0, int64(d)/int64(n), slices
	}
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			out[i] = c.run(ctx, &stop)
		}(i, c)
	}
	walls := make([]time.Duration, n)
	cpus := make([]time.Duration, n)
	prevCPU, _ := usage()
	prev := t0
	for k := 0; k < n; k++ {
		time.Sleep(time.Duration(t0 + int64(d)*int64(k+1)/int64(n) - nowNs()))
		cpu, _ := usage()
		now := nowNs()
		walls[k], cpus[k] = time.Duration(now-prev), cpu-prevCPU
		prev, prevCPU = now, cpu
	}
	stop.Store(true)
	wg.Wait()
	var all clientStats
	for _, s := range out {
		all.merge(s)
	}
	return all, walls, cpus
}

// restartTimes records restarts of site 2: the time from reopening it
// until it was available, and how that split into reopening and
// recovery.
type restartTimes struct {
	total            hist
	reopen, recovery agg
}

func (r *restartTimes) merge(o restartTimes) {
	r.total.merge(&o.total)
	r.reopen.merge(o.reopen)
	r.recovery.merge(o.recovery)
}

func (r *restartTimes) add(reopen, recovery time.Duration) {
	r.total.add(int64(reopen + recovery))
	r.reopen.add(int64(reopen))
	r.recovery.add(int64(recovery))
}

// failoverLoop kills and recovers site 2 on the fixed schedule until
// stop is closed, leaving the site available when it returns.
func failoverLoop(ctx context.Context, c cluster, stop <-chan struct{}) (restartTimes, error) {
	var times restartTimes
	start := time.Now()
	for k := 0; ; k++ {
		killAt := start.Add(failoverPeriod/2 + time.Duration(k)*failoverPeriod)
		if time.Now().After(killAt) {
			continue // the last recovery overran this slot
		}
		select {
		case <-stop:
			return times, nil
		case <-time.After(time.Until(killAt)):
		}
		if err := c.kill(); err != nil {
			return times, fmt.Errorf("kill site %d: %w", restartedSite, err)
		}
		time.Sleep(failoverDown)
		reopen, recovery, err := c.restart(ctx)
		if err != nil {
			return times, err
		}
		times.add(reopen, recovery)
	}
}

// usage reads the process's CPU time and peak resident set.
func usage() (cpu time.Duration, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss
}
