package protocol

import "context"

// A SpanContext identifies one node of a distributed trace. The
// observability layer opens a root span per device operation, the
// metering transport opens a child span per remote call, and the wire
// layer (rpcnet) carries the context inside every request so the
// remote site's handler span is causally linked to the caller's. The
// design follows Dapper: a trace is a tree of spans sharing TraceID,
// each span naming its parent.
type SpanContext struct {
	// TraceID names the whole operation tree; the root span's SpanID
	// doubles as the TraceID.
	TraceID uint64
	// SpanID names this node. IDs embed the originating site in the top
	// bits so concurrently-allocating sites never collide.
	SpanID uint64
}

// Valid reports whether the context names a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// WithSpan attaches a trace span context to ctx. Transport decorators
// and the wire layer propagate it alongside the WithOp label.
func WithSpan(ctx context.Context, sc SpanContext) context.Context {
	oc := deriveOp(ctx)
	oc.Span = sc
	return oc
}

// CtxSpan returns the span context attached by WithSpan; the zero
// SpanContext (Valid() == false) means the caller is untraced.
func CtxSpan(ctx context.Context) SpanContext {
	if oc := opContextOf(ctx); oc != nil {
		return oc.Span
	}
	return SpanContext{}
}
