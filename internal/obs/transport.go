package obs

import (
	"context"
	"errors"
	"sync"

	"relidev/internal/protocol"
)

// Transport metric families, keyed by transport/method (+class, +peer).
const (
	// MetricTransportOps counts transport invocations per method.
	MetricTransportOps = "relidev_transport_ops_total"
	// MetricTransportErrors counts failed invocations (for broadcasts,
	// failed per-destination results) per method and failure class.
	MetricTransportErrors = "relidev_transport_errors_total"
	// MetricTransportLatency is the per-method invocation latency (for
	// broadcasts, the whole concurrent fan-out).
	MetricTransportLatency = "relidev_transport_latency_ns"
	// MetricTransportPeerLatency is the per-peer round-trip latency of
	// Call and Fetch.
	MetricTransportPeerLatency = "relidev_transport_peer_latency_ns"
)

// Failure classes, derived from the transport sentinels. ClassInjected
// and ClassRemote are claimed by registered classifiers (faultnet and
// rpcnet respectively) — obs cannot import those packages without a
// cycle, so they push their sentinel knowledge in via
// RegisterErrorClassifier.
const (
	ClassDown        = "down"
	ClassUnreachable = "unreachable"
	ClassTransient   = "transient"
	ClassInjected    = "injected"
	ClassRemote      = "remote"
	ClassCanceled    = "canceled"
	ClassOther       = "other"
)

var errorClasses = [...]string{ClassDown, ClassUnreachable, ClassTransient, ClassInjected, ClassRemote, ClassCanceled, ClassOther}

// Registered classifiers run before the built-in sentinel checks:
// decorator packages (faultnet, rpcnet) wrap or precede the protocol
// sentinels, so their verdict is the more specific fact. Registration
// happens in package init only; reads take the lock per classified
// *error*, which is off the success path.
var (
	classifierMu sync.RWMutex
	classifiers  []func(error) (string, bool)
)

// RegisterErrorClassifier adds a failure classifier consulted (in
// registration order) before the built-in protocol/context checks. f
// returns the class and true when it recognises the error; it should
// return one of the Class* constants, or a new class name (unknown
// classes are counted under ClassOther's series fallback).
func RegisterErrorClassifier(f func(error) (string, bool)) {
	classifierMu.Lock()
	defer classifierMu.Unlock()
	classifiers = append(classifiers, f)
}

// classifyError buckets a transport error by its sentinel: registered
// decorator sentinels first (an injected fault wraps a protocol
// sentinel, and the injection is the more specific fact), then the
// protocol errors (down/unreachable/transient) and context
// cancellation.
func classifyError(err error) string {
	if err == nil {
		return "ok"
	}
	classifierMu.RLock()
	cs := classifiers
	classifierMu.RUnlock()
	for _, f := range cs {
		if class, ok := f(err); ok {
			return class
		}
	}
	switch {
	case errors.Is(err, protocol.ErrSiteDown):
		return ClassDown
	case errors.Is(err, protocol.ErrSiteUnreachable):
		return ClassUnreachable
	case errors.Is(err, protocol.ErrTransient):
		return ClassTransient
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled
	default:
		return ClassOther
	}
}

// transport method names.
const (
	methodCall      = "call"
	methodFetch     = "fetch"
	methodBroadcast = "broadcast"
	methodNotify    = "notify"
)

var methods = [...]string{methodCall, methodFetch, methodBroadcast, methodNotify}

const (
	mCall = iota
	mFetch
	mBroadcast
	mNotify
)

// methodMetrics is the pre-resolved series set for one transport
// method, so the wire path is atomics-only.
type methodMetrics struct {
	ops     *Counter
	latency *Histogram
	errs    map[string]*Counter // by failure class
}

// countErr buckets one failure; classes outside the pre-resolved set
// (a registered classifier inventing its own name) land in ClassOther.
func (mm *methodMetrics) countErr(err error) {
	c, ok := mm.errs[classifyError(err)]
	if !ok {
		c = mm.errs[ClassOther]
	}
	c.Inc()
}

// A MeteredTransport decorates any protocol.Transport with metering:
// invocation counts, failure classes via the rpcnet/faultnet/protocol
// sentinels, per-method latency, and per-peer round-trip latency for
// Call/Fetch. It composes with other decorators (apply it outermost so
// it observes exactly what the controllers see, fault injection
// included) and never alters results.
//
// It does not attempt §5 transmission accounting — a decorator cannot
// see, e.g., whether a failed delivery was charged — that stays inside
// simnet, attributed per operation via the protocol.WithOp context
// label that flows through this decorator unchanged.
type MeteredTransport struct {
	inner   protocol.Transport
	o       *Observer
	methods [len(methods)]methodMetrics
	// peerLat is indexed by SiteID for the peers declared at wrap time;
	// calls to undeclared peers fall back to the method histogram only.
	peerLat []*Histogram
}

var _ protocol.Transport = (*MeteredTransport)(nil)

// WrapTransport meters inner under the given transport name
// ("sim", "rpc", ...). peers pre-resolves the per-peer latency series.
// A nil observer returns inner unchanged.
func WrapTransport(o *Observer, name string, inner protocol.Transport, peers []protocol.SiteID) protocol.Transport {
	if o == nil {
		return inner
	}
	t := &MeteredTransport{inner: inner, o: o}
	tl := L("transport", name)
	for i, m := range methods {
		ml := L("method", m)
		mm := methodMetrics{
			ops:     o.reg.Counter(MetricTransportOps, tl, ml),
			latency: o.reg.Histogram(MetricTransportLatency, tl, ml),
			errs:    make(map[string]*Counter, len(errorClasses)),
		}
		for _, class := range errorClasses {
			mm.errs[class] = o.reg.Counter(MetricTransportErrors, tl, ml, L("class", class))
		}
		t.methods[i] = mm
	}
	maxPeer := protocol.SiteID(-1)
	for _, p := range peers {
		if p > maxPeer {
			maxPeer = p
		}
	}
	if maxPeer >= 0 {
		t.peerLat = make([]*Histogram, maxPeer+1)
		for _, p := range peers {
			t.peerLat[p] = o.reg.Histogram(MetricTransportPeerLatency, tl, L("peer", p.String()))
		}
	}
	return t
}

// Inner returns the wrapped transport.
func (t *MeteredTransport) Inner() protocol.Transport { return t.inner }

func (t *MeteredTransport) observePeer(to protocol.SiteID, ns int64) {
	if int(to) < len(t.peerLat) && to >= 0 {
		t.peerLat[to].Observe(ns)
	}
}

func (t *MeteredTransport) roundTrip(m int, rec protocol.PhaseRecorder, to protocol.SiteID, do func() (protocol.Response, error)) (protocol.Response, error) {
	mm := &t.methods[m]
	mm.ops.Inc()
	start := t.o.now()
	resp, err := do()
	elapsed := t.o.now() - start
	mm.latency.Observe(elapsed)
	t.observePeer(to, elapsed)
	if rec != nil {
		rec.RecordPhase(protocol.PhaseRPC, elapsed)
	}
	if err != nil {
		mm.countErr(err)
	}
	return resp, err
}

// An rpcSpan is a client-side rpc span opened by traceCall. The zero
// value (tracing off) records nothing.
type rpcSpan struct {
	t *Tracer
	r record
}

// traceCall opens a client-side rpc span under the caller's operation
// span when tracing is on: the returned context carries the new span
// (so the remote site's handle span links to it, through simnet's
// shared context or rpcnet's wire trace field) and the returned span's
// end records the trace event with the outcome. det and n are the
// detail code and its count argument (destination site or fan-out
// width). Without tracing the context passes through and nothing is
// built.
func (t *MeteredTransport) traceCall(ctx context.Context, from protocol.SiteID, det uint8, n int, req protocol.Request) (context.Context, rpcSpan) {
	tr := t.o.tracer
	if tr == nil {
		return ctx, rpcSpan{}
	}
	sp := t.o.newSpan(from, protocol.CtxSpan(ctx))
	ctx = protocol.WithSpan(ctx, protocol.SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID})
	return ctx, rpcSpan{t: tr, r: record{
		spanIDs: sp, site: int32(from), op: protocol.CtxOp(ctx), kind: kRPC, block: NoBlock,
		det: det, a: int64(n), str: req.Kind(),
	}}
}

// end records the span with the call's outcome; a failed call's detail
// gains an " err=<class>" suffix.
func (s *rpcSpan) end(err error) {
	if s.t == nil {
		return
	}
	if err != nil {
		s.r.det, s.r.str = detText, s.r.detail()+" err="+classifyError(err)
	}
	s.t.record(&s.r)
}

// Call implements protocol.Transport.
func (t *MeteredTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	ctx, span := t.traceCall(ctx, from, detCall, int(to), req)
	return t.roundTrip(mCall, protocol.CtxPhases(ctx), to, func() (protocol.Response, error) {
		resp, err := t.inner.Call(ctx, from, to, req)
		span.end(err)
		return resp, err
	})
}

// Fetch implements protocol.Transport.
func (t *MeteredTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	ctx, span := t.traceCall(ctx, from, detFetch, int(to), req)
	return t.roundTrip(mFetch, protocol.CtxPhases(ctx), to, func() (protocol.Response, error) {
		resp, err := t.inner.Fetch(ctx, from, to, req)
		span.end(err)
		return resp, err
	})
}

func (t *MeteredTransport) fanOut(m int, rec protocol.PhaseRecorder, results map[protocol.SiteID]protocol.Result, start int64) map[protocol.SiteID]protocol.Result {
	mm := &t.methods[m]
	elapsed := t.o.now() - start
	mm.latency.Observe(elapsed)
	if rec != nil {
		// The whole concurrent fan-out is one critical-path slice: the
		// coordinator waits for the slowest destination, and the
		// straggler sub-phase (recorded inside simnet/rpcnet, which see
		// per-destination completions) re-slices this wait.
		rec.RecordPhase(protocol.PhaseFanout, elapsed)
	}
	for _, res := range results {
		if res.Err != nil {
			mm.countErr(res.Err)
		}
	}
	return results
}

// Broadcast implements protocol.Transport. The whole fan-out is one
// child span: every destination's handle span parents to it.
func (t *MeteredTransport) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	mm := &t.methods[mBroadcast]
	mm.ops.Inc()
	ctx, span := t.traceCall(ctx, from, detBroadcast, len(dests), req)
	start := t.o.now()
	out := t.fanOut(mBroadcast, protocol.CtxPhases(ctx), t.inner.Broadcast(ctx, from, dests, req), start)
	span.end(nil)
	return out
}

// Notify implements protocol.Transport.
func (t *MeteredTransport) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	mm := &t.methods[mNotify]
	mm.ops.Inc()
	ctx, span := t.traceCall(ctx, from, detNotify, len(dests), req)
	start := t.o.now()
	out := t.fanOut(mNotify, protocol.CtxPhases(ctx), t.inner.Notify(ctx, from, dests, req), start)
	span.end(nil)
	return out
}
