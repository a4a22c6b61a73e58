package protocol

import "context"

// Operation labels. The observability layer tags the context of every
// controller operation with one of these so that the transport can
// attribute its §5 transmission accounting to the operation that caused
// the traffic (write, read, or recovery — the three rows of the §5 cost
// tables). The label rides the context through any transport decorators
// (fault injection, metering) down to the network that does the
// counting.
const (
	OpWrite    = "write"
	OpRead     = "read"
	OpRecovery = "recovery"
	// OpRepair labels background anti-entropy traffic (DESIGN.md §13):
	// summary exchanges and paged block fetches issued by internal/repair
	// after a site has been readmitted. Kept distinct from OpRecovery so
	// the §5 tables — which price only the readmission exchange — are not
	// polluted by the background stream.
	OpRepair = "repair"
	// OpTelemetry labels cross-site telemetry scrapes (DESIGN.md §16):
	// the aggregation plane's registry pulls. Telemetry is not one of
	// the §5 rows — the paper prices file operations, not monitoring —
	// so the class exists purely to keep scrape traffic out of the
	// write/read/recovery/repair brackets while still appearing in the
	// KindOps table, where the wirecheck/UnpricedKinds contract can see
	// that it is deliberate, attributed traffic rather than silent skew.
	OpTelemetry = "telemetry"
)

// An OpContext is the one context node a device operation carries: its
// §5 label, its trace span and its phase recorder. The observability
// layer allocates it once per operation (with the phase accumulator
// embedded in the same allocation), and WithOp, WithSpan and
// WithPhases derive a copy with one field replaced, so an operation
// pays for one context value however many of the three it sets.
//
// *OpContext is itself a context.Context: Value answers the op-context
// key and defers every other lookup, deadline and cancellation to the
// parent it wraps.
type OpContext struct {
	context.Context
	Op     string
	Span   SpanContext
	Phases PhaseRecorder
}

type opCtxKey struct{}

// Value implements context.Context.
func (c *OpContext) Value(key any) any {
	if key == (opCtxKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// opContextOf returns the innermost op context attached to ctx, or nil
// when the caller is unlabelled, untraced and unattributed.
func opContextOf(ctx context.Context) *OpContext {
	oc, _ := ctx.Value(opCtxKey{}).(*OpContext)
	return oc
}

// deriveOp returns a copy of ctx's op context (zero when there is none)
// wrapping ctx, for the With* helpers to modify.
func deriveOp(ctx context.Context) *OpContext {
	oc := &OpContext{Context: ctx}
	if cur := opContextOf(ctx); cur != nil {
		oc.Op, oc.Span, oc.Phases = cur.Op, cur.Span, cur.Phases
	}
	return oc
}

// WithOp labels ctx with the protocol-level operation the enclosed
// messages belong to.
func WithOp(ctx context.Context, op string) context.Context {
	oc := deriveOp(ctx)
	oc.Op = op
	return oc
}

// CtxOp returns the operation label attached by WithOp, or "" when the
// context is unlabelled (uninstrumented callers; their traffic is
// counted only in the aggregate totals).
func CtxOp(ctx context.Context) string {
	if oc := opContextOf(ctx); oc != nil {
		return oc.Op
	}
	return ""
}
