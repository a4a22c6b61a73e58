package protocol

import (
	"context"
	"testing"
)

type nopRecorder struct{}

func (*nopRecorder) Now() int64                  { return 0 }
func (*nopRecorder) RecordPhase(string, int64)   {}
func (*nopRecorder) RecordPeerRTT(SiteID, int64) {}

// TestOpContextHelpersCompose: each With* helper replaces one field of
// the op context and keeps the other two, inner values shadow outer
// ones, and the node still passes other keys, deadlines and
// cancellation through to its parent.
func TestOpContextHelpersCompose(t *testing.T) {
	type otherKey struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), otherKey{}, "kept"))
	if CtxOp(parent) != "" || CtxSpan(parent).Valid() || CtxPhases(parent) != nil {
		t.Fatal("bare context reports an op context")
	}
	rec := &nopRecorder{}
	span := SpanContext{TraceID: 7, SpanID: 9}
	ctx := WithPhases(WithSpan(WithOp(parent, OpWrite), span), rec)
	if CtxOp(ctx) != OpWrite || CtxSpan(ctx) != span || CtxPhases(ctx) != rec {
		t.Fatalf("composed context lost a field: op %q span %+v", CtxOp(ctx), CtxSpan(ctx))
	}
	inner := WithOp(ctx, OpRead)
	if CtxOp(inner) != OpRead || CtxOp(ctx) != OpWrite || CtxSpan(inner) != span || CtxPhases(inner) != rec {
		t.Fatal("WithOp did not shadow the label alone")
	}
	if got := ctx.Value(otherKey{}); got != "kept" {
		t.Fatalf("other key = %v through the op context", got)
	}
	child, stop := context.WithCancel(inner)
	defer stop()
	cancel()
	<-child.Done()
	if inner.Err() != context.Canceled {
		t.Fatalf("op context Err = %v after the parent was cancelled", inner.Err())
	}
}
