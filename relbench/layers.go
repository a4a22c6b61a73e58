package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"relidev/internal/block"
	"relidev/internal/scheme"
	"relidev/internal/store"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// handledKinds are the request kinds whose server-side handling time is
// reported.
var handledKinds = []string{"vote", "prepare-write", "put", "fetch", "recovery"}

// report sets every per-layer metric. A layer a workload does not have
// reports 0. traced is the traced pass; base and twin the metered and
// unmetered passes through the public constructors.
func (m spans) report(r *result, w benchWorkload, segBytes int64, traced, base, twin passResult) {
	outerAll, innerAll, local := m.storeTotals(outer, -1), m.storeTotals(inner, -1), m.storeTotals(outer, 0)
	ops := m.ops[0].n + m.ops[1].n
	opNs := m.ops[0].ns + m.ops[1].ns
	transportNs := m.opTransport[0] + m.opTransport[1]
	localNs := local.read.ns + local.write.ns
	// The scheme layer has no span of its own (that would need
	// instrumentation inside the program): its self time is what the
	// transport and local-store spans inside an operation leave
	// uncovered, OpLocks waits included. Coverage is therefore the share
	// of operation time the spans below the scheme account for; above 1
	// would mean child spans overlap or were charged to the wrong op.
	r.set("scheme.self_us_per_op", ratio(float64(max(opNs-transportNs-localNs, 0))/1e3, float64(ops)), "us", 0)
	r.set("trace.coverage", ratio(float64(transportNs+localNs), float64(opNs)), "frac", 0)
	r.set("trace.overhead_frac", 1-ratio(opsPerSec(traced), opsPerSec(base)), "frac", 0)
	r.set("obs.meter_cpu_frac", ratio(cpuPerOp(base), cpuPerOp(twin))-1, "frac", 0)

	// only reports v when the workload has the layer.
	only := func(has bool, v float64) float64 {
		if has {
			return v
		}
		return 0
	}
	sim := !w.tcp
	r.set("simnet.msgs_per_write", only(sim, ratio(float64(m.msgs), float64(m.ops[1].n))), "count", 0)
	r.set("simnet.fanout_us_per_op", only(sim, ratio(float64(transportNs)/1e3, float64(ops))), "us", 0)

	// Fan-outs on the simnet report their legs too; only TCP legs are
	// rpcnet's.
	var legs, stragglers int
	if w.tcp {
		legs, stragglers = int(m.legRTT.n), int(m.straggler.n)
	}
	r.set("rpcnet.legs_per_read", only(w.tcp, ratio(float64(m.opLegs[0]), float64(m.ops[0].n))), "count", 0)
	r.set("rpcnet.legs_per_write", only(w.tcp, ratio(float64(m.opLegs[1]), float64(m.ops[1].n))), "count", 0)
	for _, q := range []struct {
		name string
		q    float64
	}{{"rpcnet.rtt_p50_us", 0.5}, {"rpcnet.rtt_p99_us", 0.99}} {
		v, ok := m.legRTT.quantile(q.q)
		if !ok {
			v = 0
		}
		r.set(q.name, only(w.tcp, v/1e3), "us", legs)
	}
	r.set("rpcnet.wire_us", only(w.tcp, ratio(float64(m.legNs-m.handleAll.ns)/1e3, float64(m.legRTT.n))), "us", 0)
	r.set("rpcnet.straggler_us", only(w.tcp, m.straggler.meanUs()), "us", stragglers)
	r.set("rpcnet.leg_errors_per_kop", only(w.tcp, ratio(float64(m.legErrors)*1000, float64(ops))), "count", 0)
	for _, k := range handledKinds {
		a := m.handle[k]
		r.set("site.handle_us."+k, a.meanUs(), "us", int(a.n))
	}

	r.set("store.write_us", outerAll.write.meanUs(), "us", int(outerAll.write.n))
	r.set("store.sync_us", innerAll.sync.meanUs(), "us", int(innerAll.sync.n))
	r.set("store.writes_per_sync", ratio(float64(innerAll.write.n), float64(innerAll.sync.n)), "count", 0) // block and metadata records
	r.set("store.queue_wait_us", m.queueWait.meanUs(), "us", int(m.queueWait.n))
	r.set("store.bytes_per_user_byte", ratio(float64(segBytes), float64(m.userBytes)), "frac", 0)

	// Restarts of the failover schedule, or else of the restart probe.
	rs := traced.restarts
	for _, p := range traced.probe {
		rs.merge(p)
	}
	n := int(rs.total.n)
	r.set("recovery.reopen_ms", rs.reopen.meanUs()/1e3, "ms", n)
	r.set("recovery.exchange_ms", rs.recovery.meanUs()/1e3, "ms", n)
	r.set("recovery.blocks_fetched", ratio(float64(m.recBlocks), float64(n)), "count", 0)
	r.set("recovery.lagging_blocks", float64(traced.badState), "count", 0)
	if w.failover {
		r.notes = append(r.notes, durabilityNote(traced))
	}

	r.notes = append(r.notes, fmt.Sprintf("traced window: %d reads, %d writes; transport calls call=%d fetch=%d broadcast=%d notify=%d; %d legs; %d group-commit flushes; %d restarts",
		m.ops[0].n, m.ops[1].n, m.calls[mCall], m.calls[mFetch], m.calls[mBroadcast], m.calls[mNotify], m.legRTT.n, m.flushes, n))
}

func opsPerSec(p passResult) float64 { return ratio(float64(p.completed()), p.wall.Seconds()) }

func cpuPerOp(p passResult) float64 {
	return ratio(float64(p.cpu.Nanoseconds())/1e3, float64(p.completed()))
}

// probes makes direct timed calls into single layers and sets their
// metrics: scheme.OpLocks uncontended and 2-way contended, and a
// SegStore's Write and Sync on the filesystem the workloads use.
func probes(r *result, dir string) error {
	r.set("scheme.oplock_uncontended_ns", medianOf(5, func() float64 { return lockProbe(1) }), "ns", 5)
	r.set("scheme.oplock_contended_ns", medianOf(5, func() float64 { return lockProbe(2) }), "ns", 5)

	st, err := store.CreateSeg(filepath.Join(dir, "probe"), geometry)
	if err != nil {
		return fmt.Errorf("segment probe: %w", err)
	}
	defer st.Close()
	const rounds = 64
	var writes, syncs hist
	buf := make([]byte, blockSize)
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < rounds && time.Now().Before(deadline); i++ {
		encodePayload(buf, block.Index(i), uint64(i+1))
		t0 := nowNs()
		if err := st.Write(block.Index(i), buf, block.Version(i+1)); err != nil {
			return fmt.Errorf("segment probe write: %w", err)
		}
		t1 := nowNs()
		if err := st.Sync(); err != nil {
			return fmt.Errorf("segment probe sync: %w", err)
		}
		writes.add(t1 - t0)
		syncs.add(nowNs() - t1)
	}
	wv, _ := writes.quantile(0.5)
	sv, _ := syncs.quantile(0.5)
	r.set("store.seg_append_us", wv/1e3, "us", int(writes.n))
	r.set("store.fsync_us", sv/1e3, "us", int(syncs.n))
	where := "reaches a device"
	if sv < 20_000 {
		where = "stops at the page cache (or a device with a volatile cache)"
	}
	r.notes = append(r.notes, fmt.Sprintf("fsync probe: median %.1f us over %d syncs of one record; at that speed fsync on this filesystem %s", sv/1e3, syncs.n, where))
	return nil
}

// lockProbe returns the mean ns of one LockOp/UnlockOp pair with
// `parties` goroutines taking the same block's lock.
func lockProbe(parties int) float64 {
	const rounds = 200_000
	var l scheme.OpLocks
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				l.LockOp(7)
				l.UnlockOp(7)
			}
		}()
	}
	t0 := nowNs()
	close(start)
	wg.Wait()
	return float64(nowNs()-t0) / float64(rounds*parties)
}

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	sort.Float64s(xs)
	return xs[n/2]
}
