package main

import (
	"context"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relidev"
	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/simnet"
	"relidev/internal/store"
)

// The traced run times each layer with decorators placed at the
// program's public boundaries — core.Device, protocol.Transport, the
// protocol.Handler a site serves, and store.Store — and with the
// per-destination round trips the fan-outs already report to a
// protocol.PhaseRecorder found in the operation context. Nothing inside
// the program is changed.

var epoch = time.Now()

// nowNs reads the monotonic clock as nanoseconds since start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// Transport method indices, in the order obs labels them.
const (
	mCall = iota
	mFetch
	mBroadcast
	mNotify
	numMethods
)

var methodNames = [numMethods]string{"call", "fetch", "broadcast", "notify"}

// agg sums one kind of span.
type agg struct {
	n  uint64
	ns int64
}

func (a *agg) add(ns int64) { a.n++; a.ns += ns }

func (a *agg) merge(b agg) { a.n += b.n; a.ns += b.ns }

func (a agg) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n) / 1e3
}

// opSpan is the state of one device operation shared, through its
// context, with the transport spans it causes.
type opSpan struct {
	transportNs atomic.Int64
	legs        atomic.Int64
}

type opSpanKey struct{}

// storeLayer names where a store decorator sits: outer is the store the
// replica sees (above any group-commit batcher), inner the store the
// batcher flushes into.
type storeLayer int

const (
	outer storeLayer = iota
	inner
)

type storeAgg struct {
	read, write, sync agg
}

// spans aggregates every span of a traced window.
type spans struct {
	ops         [2]agg   // device operations: read, write
	opTransport [2]int64 // transport time inside them
	opLegs      [2]uint64
	calls       [numMethods]uint64
	legRTT      hist
	legNs       int64
	legErrors   uint64
	straggler   agg
	handle      map[string]agg
	handleAll   agg
	stores      map[[2]int]storeAgg // key: site, layer
	userBytes   int64               // written through the replica-facing stores
	queueWait   agg
	flushes     uint64
	recBlocks   uint64 // blocks carried by recovery replies
	msgs        uint64 // simnet transmissions (§5), in-process clusters only
}

// tracer collects the spans of a traced pass.
type tracer struct {
	mu     sync.Mutex
	s      spans
	simnet *simnet.Network // the in-process cluster's network, nil over TCP
	msgs0  uint64          // its transmissions at the last reset
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset discards every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.s = spans{handle: map[string]agg{}, stores: map[[2]int]storeAgg{}}
	if t.simnet != nil {
		t.msgs0 = t.simnet.Stats().Transmissions
	}
}

// snapshot returns the spans recorded since the last reset.
func (t *tracer) snapshot() spans {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.s
	out.handle = maps.Clone(t.s.handle)
	out.stores = maps.Clone(t.s.stores)
	if t.simnet != nil {
		out.msgs = t.simnet.Stats().Transmissions - t.msgs0
	}
	return out
}

// tracedDevice times each operation and opens the context span that
// transport decorators below it report into.
type tracedDevice struct {
	inner relidev.Device
	tr    *tracer
}

func (d *tracedDevice) Geometry() block.Geometry { return d.inner.Geometry() }

func (d *tracedDevice) ReadBlock(ctx context.Context, idx block.Index) ([]byte, error) {
	sp := &opSpan{}
	t0 := nowNs()
	data, err := d.inner.ReadBlock(context.WithValue(ctx, opSpanKey{}, sp), idx)
	d.tr.endOp(0, nowNs()-t0, sp)
	return data, err
}

func (d *tracedDevice) WriteBlock(ctx context.Context, idx block.Index, data []byte) error {
	sp := &opSpan{}
	t0 := nowNs()
	err := d.inner.WriteBlock(context.WithValue(ctx, opSpanKey{}, sp), idx, data)
	d.tr.endOp(1, nowNs()-t0, sp)
	return err
}

func (t *tracer) endOp(kind int, ns int64, sp *opSpan) {
	t.mu.Lock()
	t.s.ops[kind].add(ns)
	t.s.opTransport[kind] += sp.transportNs.Load()
	t.s.opLegs[kind] += uint64(sp.legs.Load())
	t.mu.Unlock()
}

// legRecorder receives the per-destination round trips a fan-out
// reports, and passes them on to the recorder it displaced (the
// metering layer's), so the traced program attributes exactly what the
// untraced one does. The fan-outs call RecordPeerRTT and RecordPhase
// only from the goroutine that called Broadcast, after their legs have
// joined.
type legRecorder struct {
	next protocol.PhaseRecorder
	rtts []int64
}

func (r *legRecorder) Now() int64 { return nowNs() }

func (r *legRecorder) RecordPhase(phase string, ns int64) {
	if r.next != nil {
		r.next.RecordPhase(phase, ns)
	}
}

func (r *legRecorder) RecordPeerRTT(to protocol.SiteID, ns int64) {
	r.rtts = append(r.rtts, ns)
	if r.next != nil {
		r.next.RecordPeerRTT(to, ns)
	}
}

// tracedTransport times every transport call and its legs.
type tracedTransport struct {
	inner protocol.Transport
	tr    *tracer
}

func (t *tracedTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return t.point(ctx, mCall, func() (protocol.Response, error) { return t.inner.Call(ctx, from, to, req) })
}

func (t *tracedTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return t.point(ctx, mFetch, func() (protocol.Response, error) { return t.inner.Fetch(ctx, from, to, req) })
}

func (t *tracedTransport) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return t.fanout(ctx, mBroadcast, func(ctx context.Context) map[protocol.SiteID]protocol.Result {
		return t.inner.Broadcast(ctx, from, dests, req)
	})
}

func (t *tracedTransport) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return t.fanout(ctx, mNotify, func(ctx context.Context) map[protocol.SiteID]protocol.Result {
		return t.inner.Notify(ctx, from, dests, req)
	})
}

// point times a single-destination call: one leg.
func (t *tracedTransport) point(ctx context.Context, m int, call func() (protocol.Response, error)) (protocol.Response, error) {
	t0 := nowNs()
	resp, err := call()
	ns := nowNs() - t0
	var errs uint64
	if err != nil {
		errs = 1
	}
	t.record(ctx, m, ns, []int64{ns}, errs, resp)
	return resp, err
}

// fanout times a broadcast; its legs are the round trips the fan-out
// reports to the context's phase recorder.
func (t *tracedTransport) fanout(ctx context.Context, m int, call func(context.Context) map[protocol.SiteID]protocol.Result) map[protocol.SiteID]protocol.Result {
	rec := &legRecorder{next: protocol.CtxPhases(ctx)}
	t0 := nowNs()
	res := call(protocol.WithPhases(ctx, rec))
	ns := nowNs() - t0
	var errs uint64
	for _, r := range res {
		if r.Err != nil {
			errs++
		}
	}
	t.record(ctx, m, ns, rec.rtts, errs, nil)
	return res
}

func (t *tracedTransport) record(ctx context.Context, m int, ns int64, legs []int64, errs uint64, resp protocol.Response) {
	if sp, ok := ctx.Value(opSpanKey{}).(*opSpan); ok {
		sp.transportNs.Add(ns)
		sp.legs.Add(int64(len(legs)))
	}
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	s := &t.tr.s
	s.calls[m]++
	for _, l := range legs {
		s.legRTT.add(l)
		s.legNs += l
	}
	s.legErrors += errs
	if len(legs) >= 2 {
		s.straggler.add(stragglerNs(legs))
	}
	if r, ok := resp.(protocol.RecoveryReply); ok {
		s.recBlocks += uint64(len(r.Blocks))
	}
}

// stragglerNs is how much later the slowest leg ended than the
// second-slowest.
func stragglerNs(legs []int64) int64 {
	s := append([]int64(nil), legs...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	return s[0] - s[1]
}

// tracedHandler times a site's server-side handling of each request.
type tracedHandler struct {
	inner protocol.Handler
	tr    *tracer
}

func (h *tracedHandler) Handle(ctx context.Context, from protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	t0 := nowNs()
	resp, err := h.inner.Handle(ctx, from, req)
	ns := nowNs() - t0
	h.tr.mu.Lock()
	a := h.tr.s.handle[req.Kind()]
	a.add(ns)
	h.tr.s.handle[req.Kind()] = a
	h.tr.s.handleAll.add(ns)
	h.tr.mu.Unlock()
	return resp, err
}

// timedStore times Read, Write and SaveMeta, and counts the bytes
// written through the replica-facing layer. It deliberately has no
// Sync method: wrapStore picks timedSyncStore when the wrapped store
// has one, so a Batcher above the decorator syncs exactly when it
// would without it.
type timedStore struct {
	store.Store
	tr  *tracer
	key [2]int
}

func (s *timedStore) Read(idx block.Index) ([]byte, block.Version, error) {
	t0 := nowNs()
	data, ver, err := s.Store.Read(idx)
	ns := nowNs() - t0
	s.tr.storeSpan(s.key, func(a *storeAgg) { a.read.add(ns) })
	return data, ver, err
}

func (s *timedStore) Write(idx block.Index, data []byte, ver block.Version) error {
	t0 := nowNs()
	err := s.Store.Write(idx, data, ver)
	s.wrote(nowNs()-t0, len(data))
	return err
}

// SaveMeta is timed and counted with the block writes: group commit
// batches both kinds of record under one fsync.
func (s *timedStore) SaveMeta(meta []byte) error {
	t0 := nowNs()
	err := s.Store.SaveMeta(meta)
	s.wrote(nowNs()-t0, len(meta))
	return err
}

// wrote records a write span of n bytes.
func (s *timedStore) wrote(ns int64, n int) {
	s.tr.storeSpan(s.key, func(a *storeAgg) { a.write.add(ns) })
	if s.key[1] == int(outer) {
		s.tr.mu.Lock()
		s.tr.s.userBytes += int64(n)
		s.tr.mu.Unlock()
	}
}

type timedSyncStore struct {
	timedStore
	syncer store.Syncer
}

func (s *timedSyncStore) Sync() error {
	t0 := nowNs()
	err := s.syncer.Sync()
	ns := nowNs() - t0
	s.tr.storeSpan(s.key, func(a *storeAgg) { a.sync.add(ns) })
	return err
}

// wrapStore decorates st, exposing store.Syncer exactly when st does.
func (t *tracer) wrapStore(site protocol.SiteID, layer storeLayer, st store.Store) store.Store {
	ts := timedStore{Store: st, tr: t, key: [2]int{int(site), int(layer)}}
	if sy, ok := st.(store.Syncer); ok {
		return &timedSyncStore{timedStore: ts, syncer: sy}
	}
	return &ts
}

// storeSpan records one store span under key.
func (t *tracer) storeSpan(key [2]int, rec func(*storeAgg)) {
	t.mu.Lock()
	a := t.s.stores[key]
	rec(&a)
	t.s.stores[key] = a
	t.mu.Unlock()
}

// flushStats records one group-commit flush.
func (t *tracer) flushStats(st store.FlushStats) {
	t.mu.Lock()
	t.s.flushes++
	for _, w := range st.QueueWaitNs {
		t.s.queueWait.add(w)
	}
	t.mu.Unlock()
}

// storeTotals sums the store aggregates of one layer, optionally only
// for one site (site < 0: every site).
func (s spans) storeTotals(layer storeLayer, site int) storeAgg {
	var out storeAgg
	for k, a := range s.stores {
		if k[1] != int(layer) || (site >= 0 && k[0] != site) {
			continue
		}
		out.read.merge(a.read)
		out.write.merge(a.write)
		out.sync.merge(a.sync)
	}
	return out
}
