package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"relidev/internal/block"
)

const (
	// setupRuns is how many times a run builds its cluster, each time
	// from a heap returned to the operating system; setup_s is the
	// median.
	setupRuns = 101
	// warmup runs the workload unrecorded before the measured window, so
	// connections, pools and caches are established.
	warmup = 500 * time.Millisecond
	// After their window, the workloads without a failover schedule
	// restart site 2 for probeSlice per slice, at least minProbeRestarts
	// times, so the median has ten samples beyond it.
	probeSlice       = 1000 * time.Millisecond
	minProbeRestarts = 21
	// A write-only workload takes its read latencies from read-backs
	// after the window, each reading every block for readBackSlice.
	readBackSlice = 500 * time.Millisecond
	// windowSlices is how many equal parts the end-to-end window is cut
	// into. Each timing metric is the median of its value in each slice,
	// so a burst of load from outside the benchmark moves few slices.
	windowSlices = 10
)

// passResult is what one pass over a cluster measured.
type passResult struct {
	st       clientStats // measured window
	wall     time.Duration
	cpu      time.Duration
	walls    []time.Duration // per slice of the window
	cpus     []time.Duration
	restarts restartTimes   // failover schedule, during the window
	rb       clientStats    // post-window read-backs of every block, counts only
	rbReads  []hist         // read latencies of each read-back
	probe    []restartTimes // restart probe after the window, per slice
	badState uint64         // replicas failing the final durability check
	firstBad string
}

func (p *passResult) completed() uint64 { return p.st.ops - p.st.failedOps }

// account adds a pass's operations and check outcomes to r.
func (r *result) account(p passResult) {
	r.Attempted += p.st.ops + p.rb.ops
	r.Failed += p.st.failedOps + p.rb.failedOps + p.badState
	if p.st.badReads+p.rb.badReads+p.badState > 0 {
		r.Correct = false
		if r.firstBad == "" {
			r.firstBad = p.firstBad
		}
	}
}

// runPass drives one pass: warm-up, the measured window (with the
// failover schedule where the workload has one), then the checks and
// probes that need a quiet device. onWindow, when set, runs at the
// start and end of the window (the traced pass resets and reads its
// tracer there).
func runPass(ctx context.Context, w benchWorkload, c cluster, lists [][]op, d time.Duration, nslices int, withProbe bool, onWindow func(start bool)) (passResult, error) {
	var res passResult
	chk := &checker{}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{slot: i, dev: c.device(), chk: chk, ops: lists[i], buf: make([]byte, blockSize)}
	}
	runClients(ctx, cs, warmup, 0)
	// Start the window, and each read-back below, from a collected heap,
	// so garbage left by set-up and earlier phases is not charged to it.
	runtime.GC()

	stop := make(chan struct{})
	var failErr error
	var wg sync.WaitGroup
	if onWindow != nil {
		onWindow(true)
	}
	if w.failover {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.restarts, failErr = failoverLoop(ctx, c, stop)
		}()
	}
	res.st, res.walls, res.cpus = runClients(ctx, cs, d, nslices)
	close(stop)
	wg.Wait()
	for k := range res.walls {
		res.wall += res.walls[k]
		res.cpu += res.cpus[k]
	}
	if onWindow != nil {
		onWindow(false)
	}
	if failErr != nil {
		return res, failErr
	}

	// Every block is read back and checked once the device is quiet. A
	// write-only workload takes its read latencies from here, so each of
	// its nslices read-backs keeps reading every block for readBackSlice.
	res.firstBad = res.st.firstBad
	readBacks, minRead := 1, time.Duration(0)
	if w.readRatio == 0 {
		readBacks, minRead = max(nslices, 1), readBackSlice
	}
	for k := 0; k < readBacks; k++ {
		runtime.GC()
		rb, err := readBack(ctx, c, chk, minRead)
		if err != nil {
			return res, err
		}
		res.rbReads = append(res.rbReads, rb.reads[0])
		rb.reads, rb.writes = nil, nil
		res.rb.merge(rb)
	}
	if res.firstBad == "" {
		res.firstBad = res.rb.firstBad
	}
	if w.failover {
		// Site 2 is available again and no write is in flight, so every
		// replica must hold every block's last acknowledged write.
		bad, first, err := durabilityCheck(ctx, w, c, chk)
		if err != nil {
			return res, err
		}
		res.badState = bad
		if res.firstBad == "" {
			res.firstBad = first
		}
	} else if withProbe {
		// A restart here takes from microseconds (in-process voting) to
		// a millisecond (TCP), so each slice restarts for a fixed time.
		runtime.GC()
		res.probe = make([]restartTimes, nslices)
		for k := range res.probe {
			end := time.Now().Add(probeSlice)
			for res.probe[k].total.n < minProbeRestarts || time.Now().Before(end) {
				if err := c.kill(); err != nil {
					return res, err
				}
				reopen, recovery, err := c.restart(ctx)
				if err != nil {
					return res, err
				}
				res.probe[k].add(reopen, recovery)
			}
		}
	}
	return res, nil
}

// readBack reads every block through site 0 with the same clients and
// checks it, recording read latencies; it repeats the round until at
// least d has passed.
func readBack(ctx context.Context, c cluster, chk *checker, d time.Duration) (clientStats, error) {
	end := time.Now().Add(d)
	out := make([]clientStats, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &client{slot: i, dev: c.device(), chk: chk, start: nowNs(), sliceNs: 1, slices: 1}
			out[i] = clientStats{reads: make([]hist, 1), writes: make([]hist, 1)}
			for first := true; first || time.Now().Before(end); first = false {
				for idx := i; idx < numBlocks; idx += clients {
					cl.do(ctx, block.Index(idx), false, &out[i])
				}
			}
		}(i)
	}
	wg.Wait()
	var all clientStats
	for _, s := range out {
		all.merge(s)
	}
	if all.failedOps > all.badReads {
		return all, fmt.Errorf("read-back: %d reads failed on a quiet device", all.failedOps-all.badReads)
	}
	return all, nil
}

// durabilityCheck fetches every block from every replica once the
// device is quiet: every replica must hold the same write, and it must
// be the last acknowledged one.
func durabilityCheck(ctx context.Context, w benchWorkload, c cluster, chk *checker) (uint64, string, error) {
	var bad uint64
	first := ""
	now := nowNs()
	for idx := 0; idx < numBlocks; idx++ {
		var seqs []uint64
		for s := 0; s < w.sites; s++ {
			data, err := c.fetch(ctx, s, idx)
			if err != nil {
				return bad, first, fmt.Errorf("durability check: fetch block %d from site %d: %w", idx, s, err)
			}
			seq, err := decodePayload(data, block.Index(idx))
			if err == nil && !chk.valid(block.Index(idx), seq, now) {
				err = fmt.Errorf("holds write %d, which an acknowledged write replaced", seq)
			}
			if err == nil && len(seqs) > 0 && seq != seqs[0] {
				err = fmt.Errorf("holds write %d, site 0 holds write %d", seq, seqs[0])
			}
			if err != nil {
				bad++
				if first == "" {
					first = fmt.Sprintf("durability: block %d at site %d: %v", idx, s, err)
				}
			}
			seqs = append(seqs, seq)
		}
	}
	return bad, first, nil
}

// endToEnd is the untraced run: setup timed several times, one pass
// through the public constructors, end-to-end metrics.
func endToEnd(ctx context.Context, w benchWorkload, seed int64, d time.Duration, dir string) (*result, error) {
	lists, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	setup := make([]int64, setupRuns)
	var c cluster
	for i := range setup {
		debug.FreeOSMemory()
		t0 := time.Now()
		c, err = openCluster(w, metered, filepath.Join(dir, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return nil, err
		}
		if _, err := c.device().ReadBlock(ctx, 0); err != nil {
			c.close()
			return nil, fmt.Errorf("first read: %w", err)
		}
		setup[i] = int64(time.Since(t0))
		if i < setupRuns-1 {
			if err := c.close(); err != nil {
				return nil, err
			}
		}
	}
	p, err := runPass(ctx, w, c, lists, d, windowSlices, true, nil)
	if cerr := c.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	r := &result{Metrics: map[string]metric{}, info: map[string]metric{}, Correct: true}
	r.account(p)
	done := p.completed()
	if done == 0 {
		return nil, fmt.Errorf("no operation completed")
	}

	sort.Slice(setup, func(i, j int) bool { return setup[i] < setup[j] })
	r.set("setup_s", float64(setup[len(setup)/2])/1e9, "s", setupRuns)
	ops := make([]float64, len(p.walls))
	cpu := make([]float64, len(p.walls))
	for k := range p.walls {
		n := float64(p.st.reads[k].n + p.st.writes[k].n)
		ops[k] = n / p.walls[k].Seconds()
		cpu[k] = ratio(float64(p.cpus[k].Nanoseconds())/1e3, n)
	}
	r.set("ops_per_s", median(ops), "1/s", int(done))
	r.notes = append(r.notes, fmt.Sprintf("ops_per_s by slice: %.0f", ops))
	r.set("cpu_us_per_op", median(cpu), "us", int(done))
	reads := p.st.reads
	readSrc := "measured window"
	if w.readRatio == 0 {
		reads, readSrc = p.rbReads, "post-window read-back (the window is write-only)"
	}
	r.notes = append(r.notes, fmt.Sprintf("timings are medians over %d slices of the window; read latencies from the %s", len(p.walls), readSrc))
	// The p99s are printed but not gated: on a shared virtual machine a
	// fraction of a percent of host steal moves them by a third from run
	// to run while the medians hold within a few percent, so the gate
	// watches the tail at p90.
	for _, q := range []struct {
		name    string
		samples []hist
		q       float64
	}{
		{"read_p50_us", reads, 0.50},
		{"read_p90_us", reads, 0.90},
		{"read_p99_us", reads, 0.99},
		{"write_p50_us", p.st.writes, 0.50},
		{"write_p90_us", p.st.writes, 0.90},
		{"write_p99_us", p.st.writes, 0.99},
	} {
		per := make([]float64, len(q.samples))
		n := 0
		var short error
		for k := range q.samples {
			h := &q.samples[k]
			v, ok := h.quantile(q.q)
			if !ok && short == nil {
				short = fmt.Errorf("%s: %w (%d samples in slice %d)", q.name, errNotEnoughSamples, h.n, k)
			}
			per[k] = v / 1e3
			n += int(h.n)
		}
		switch {
		case q.q != 0.99 && short != nil:
			return nil, short
		case q.q != 0.99:
			r.set(q.name, median(per), "us", n)
		case short != nil:
			r.notes = append(r.notes, short.Error()+"; not reported")
		default:
			r.inform(q.name, median(per), "us", n)
		}
	}
	_, rss := usage()
	r.set("peak_rss_mb", float64(rss)/1024, "MiB", 0)
	failedCalls := p.st.failed + p.st.badReads
	r.set("ok_frac", 1-float64(failedCalls)/float64(p.st.calls), "frac", 0)
	r.notes = append(r.notes, fmt.Sprintf("failed_frac %.6f (%d of %d device calls failed; %d of %d operations failed within %v of retries)",
		float64(failedCalls)/float64(p.st.calls), failedCalls, p.st.calls, p.st.failedOps, p.st.ops, retryDeadline))
	var recover float64
	var nrec int
	if w.failover {
		v, ok := p.restarts.total.quantile(0.5)
		if !ok {
			return nil, fmt.Errorf("recover_p50_ms: %w (%d restarts)", errNotEnoughSamples, p.restarts.total.n)
		}
		recover, nrec = v/1e6, int(p.restarts.total.n)
		r.notes = append(r.notes, "recover_p50_ms from the failover schedule in the window")
	} else {
		per := make([]float64, len(p.probe))
		for k := range p.probe {
			h := &p.probe[k].total
			v, ok := h.quantile(0.5)
			if !ok {
				return nil, fmt.Errorf("recover_p50_ms: %w (%d restarts)", errNotEnoughSamples, h.n)
			}
			per[k] = v / 1e6
			nrec += int(h.n)
		}
		recover = median(per)
		r.notes = append(r.notes, fmt.Sprintf("recover_p50_ms from the restart probe after the window: median of %d slice medians, each over %v of restarts (%d restarts)", len(p.probe), probeSlice, nrec))
	}
	r.set("recover_p50_ms", recover, "ms", nrec)
	if w.failover {
		r.notes = append(r.notes, durabilityNote(p))
	}
	return r, nil
}

// perLayer is the traced run: a metered pass and an unmetered twin
// through the public constructors, then the traced pass, then the layer
// probes.
func perLayer(ctx context.Context, w benchWorkload, seed int64, d time.Duration, dir string) (*result, error) {
	lists, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	r := &result{Metrics: map[string]metric{}, Correct: true}
	plain := func(v variant, name string, d time.Duration) (passResult, error) {
		c, err := openCluster(w, v, filepath.Join(dir, name), nil)
		if err != nil {
			return passResult{}, err
		}
		p, err := runPass(ctx, w, c, lists, d, 1, false, nil)
		if cerr := c.close(); err == nil && cerr != nil {
			err = cerr
		}
		r.account(p)
		return p, err
	}
	base, err := plain(metered, "metered", d/4)
	if err != nil {
		return nil, err
	}
	twin, err := plain(unmetered, "unmetered", d/4)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	c, err := openCluster(w, traced, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	var lm spans
	var segBytes int64
	poll := &segPoller{dir: filepath.Join(dir, "traced")}
	p, err := runPass(ctx, w, c, lists, d/2, 1, true, func(start bool) {
		if start {
			tr.reset()
			if w.segStores {
				poll.start()
			}
			return
		}
		if w.segStores {
			segBytes = poll.stop()
		}
		lm = tr.snapshot()
	})
	if cerr := c.close(); err == nil && cerr != nil {
		err = cerr
	}
	r.account(p)
	if err != nil {
		return nil, err
	}
	lm.report(r, w, segBytes, p, base, twin)
	if err := probes(r, dir); err != nil {
		return nil, err
	}
	return r, nil
}

// segPoller tracks how many bytes the segment files under dir grow by
// while it runs. Segments rotate at 4 MiB and superseded ones are
// deleted, so it samples often and keeps each file's largest size.
type segPoller struct {
	dir     string
	initial map[string]int64
	max     map[string]int64
	done    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
}

func (s *segPoller) start() {
	s.initial = segSizes(s.dir)
	s.max = map[string]int64{}
	s.done = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
}

func (s *segPoller) sample() {
	sizes := segSizes(s.dir)
	s.mu.Lock()
	for k, v := range sizes {
		if v > s.max[k] {
			s.max[k] = v
		}
	}
	s.mu.Unlock()
}

// stop ends polling and returns the bytes appended since start.
func (s *segPoller) stop() int64 {
	close(s.done)
	s.wg.Wait()
	s.sample()
	var grown int64
	for k, v := range s.max {
		grown += v - s.initial[k]
	}
	return grown
}

func segSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	matches, _ := filepath.Glob(filepath.Join(dir, "site*", "seg-*.log"))
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			out[m] = fi.Size()
		}
	}
	return out
}

// durabilityNote reports the durability check after the failover
// window.
func durabilityNote(p passResult) string {
	if p.badState == 0 {
		return "durability check: every replica held every block's last acknowledged write after the failover window"
	}
	return fmt.Sprintf("durability check: %d of %d replica blocks did not hold the last acknowledged write after the failover window", p.badState, numBlocks*3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
