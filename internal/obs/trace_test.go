package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"relidev/internal/protocol"
)

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvOpStart})
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer retained events")
	}
}

func TestTracerRing(t *testing.T) {
	clk := NewLogicalClock(10)
	tr := NewTracer(4, clk.Now)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: EvOpStart, Block: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest first: blocks 2,3,4,5 survive the wrap.
	for i, e := range evs {
		if e.Block != int64(i+2) {
			t.Fatalf("event %d block = %d, want %d", i, e.Block, i+2)
		}
		if e.Seq != uint64(i+3) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+3)
		}
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	// Logical timestamps are strictly increasing in emit order.
	for i := 1; i < len(evs); i++ {
		if evs[i].At <= evs[i-1].At {
			t.Fatalf("timestamps not increasing: %d then %d", evs[i-1].At, evs[i].At)
		}
	}
}

// TestTracerRingGrowsToCapacity: the ring starts small, grows as events
// arrive, and never holds more slots than its capacity.
func TestTracerRingGrowsToCapacity(t *testing.T) {
	tr := NewTracer(1000, NewLogicalClock(1).Now)
	tr.Emit(Event{Kind: EvOpStart})
	if c := cap(tr.ring); c > 64 {
		t.Fatalf("one event reserved %d slots", c)
	}
	for i := 0; i < 2500; i++ {
		tr.Emit(Event{Kind: EvOpStart, Block: int64(i)})
	}
	if c := cap(tr.ring); c != 1000 {
		t.Fatalf("full ring has %d slots, want its capacity 1000", c)
	}
	if evs := tr.Events(); len(evs) != 1000 || evs[999].Block != 2499 || tr.Dropped() != 1501 {
		t.Fatalf("retained %d events (last block %d), dropped %d", len(evs), evs[len(evs)-1].Block, tr.Dropped())
	}
}

func TestTracerDefaults(t *testing.T) {
	tr := NewTracer(0, nil) // capacity and clock both defaulted
	tr.Emit(Event{Kind: EvOpEnd})
	evs := tr.Events()
	if len(evs) != 1 || evs[0].At == 0 {
		t.Fatalf("defaulted tracer events = %+v", evs)
	}
}

// TestTracerWraparoundConcurrent hammers a small ring from many
// goroutines and checks the invariants that survive wraparound: the
// ring holds exactly its capacity, retained + dropped equals emitted,
// every retained event is one of the emitted ones (no tearing: Seq and
// Detail must agree), and the retained window is the newest suffix.
func TestTracerWraparoundConcurrent(t *testing.T) {
	const (
		cap     = 64
		writers = 8
		perG    = 500
	)
	tr := NewTracer(cap, NewLogicalClock(1).Now)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Event{Site: g, Kind: EvRPC, Block: int64(i), Detail: fmt.Sprintf("g%d.%d", g, i)})
			}
		}(g)
	}
	wg.Wait()

	events := tr.Events()
	if len(events) != cap {
		t.Fatalf("retained %d events, want ring capacity %d", len(events), cap)
	}
	const emitted = writers * perG
	if got := tr.Dropped() + uint64(len(events)); got != emitted {
		t.Fatalf("dropped+retained = %d, want %d emitted", got, emitted)
	}
	seen := make(map[uint64]bool, cap)
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d in ring", e.Seq)
		}
		seen[e.Seq] = true
		if want := fmt.Sprintf("g%d.%d", e.Site, e.Block); e.Detail != want {
			t.Fatalf("torn event: site %d block %d detail %q", e.Site, e.Block, e.Detail)
		}
		// The ring keeps a newest suffix: with emitted >> cap, nothing
		// from the earliest emissions can survive.
		if e.Seq <= emitted-2*cap {
			t.Fatalf("ancient seq %d survived a %d-event wrap", e.Seq, emitted)
		}
	}
}

// TestStitchPartialTreeAfterEviction models the satellite scenario:
// one site's ring wrapped and evicted the spans a remote site's handle
// spans point at. Stitching must degrade to a partial tree — the
// orphaned spans attached at the top, flagged — and never panic.
func TestStitchPartialTreeAfterEviction(t *testing.T) {
	// Trace 100: root op span (id 100) -> rpc span (id 101) -> remote
	// handle span (id 102). The rpc span's events were evicted.
	events := []Event{
		{Seq: 1, At: 10, TraceID: 100, SpanID: 100, Site: 0, Op: "write", Kind: EvOpStart},
		{Seq: 4, At: 40, TraceID: 100, SpanID: 100, Site: 0, Op: "write", Kind: EvOpEnd, Detail: "ok"},
		// span 101 (rpc, parent 100) evicted from site 0's ring.
		{Seq: 3, At: 25, TraceID: 100, SpanID: 102, ParentID: 101, Site: 2, Op: "write", Kind: EvHandle},
	}
	trees := Stitch(events)
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	tree := trees[0]
	if tree.TraceID != 100 || tree.Root == nil || tree.Root.SpanID != 100 {
		t.Fatalf("root = %+v", tree.Root)
	}
	if tree.Complete() {
		t.Fatal("tree with evicted ancestry claims completeness")
	}
	if len(tree.Orphans) != 1 || tree.Orphans[0].SpanID != 102 || !tree.Orphans[0].Orphaned {
		t.Fatalf("orphans = %+v", tree.Orphans)
	}
	if tree.Spans != 2 {
		t.Fatalf("spans = %d, want 2", tree.Spans)
	}
	if got := tree.AllSites(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("sites = %v", got)
	}
	// The op span aggregated its start/end pair.
	if tree.Root.StartNs != 10 || tree.Root.EndNs != 40 || tree.Root.Kind != "op" || tree.Root.Detail != "ok" {
		t.Fatalf("root aggregation = %+v", tree.Root)
	}

	// A fully intact trace alongside stays complete.
	intact := append(events,
		Event{Seq: 5, At: 50, TraceID: 200, SpanID: 200, Site: 1, Op: "read", Kind: EvOpStart},
		Event{Seq: 6, At: 55, TraceID: 200, SpanID: 201, ParentID: 200, Site: 1, Op: "read", Kind: EvRPC},
		Event{Seq: 7, At: 60, TraceID: 200, SpanID: 200, Site: 1, Op: "read", Kind: EvOpEnd},
	)
	trees = Stitch(intact)
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2", len(trees))
	}
	if !trees[1].Complete() || trees[1].TraceID != 200 || len(trees[1].Root.Children) != 1 {
		t.Fatalf("intact tree = %+v", trees[1])
	}
}

// TestStitchDeterministicOrder: stitching the same multiset of events
// in different input orders yields identical trees.
func TestStitchDeterministicOrder(t *testing.T) {
	events := []Event{
		{At: 1, TraceID: 1, SpanID: 1, Kind: EvOpStart, Site: 0},
		{At: 2, TraceID: 1, SpanID: 2, ParentID: 1, Kind: EvRPC, Site: 0},
		{At: 2, TraceID: 1, SpanID: 3, ParentID: 1, Kind: EvRPC, Site: 0},
		{At: 3, TraceID: 1, SpanID: 4, ParentID: 2, Kind: EvHandle, Site: 1},
		{At: 9, TraceID: 1, SpanID: 1, Kind: EvOpEnd, Site: 0},
		{At: 5, TraceID: 7, SpanID: 7, Kind: EvOpStart, Site: 2},
	}
	a := Stitch(events)
	rev := make([]Event, len(events))
	for i, e := range events {
		rev[len(events)-1-i] = e
	}
	b := Stitch(rev)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("order-dependent stitch:\n%s\nvs\n%s", ja, jb)
	}
	if len(a) != 2 || a[0].TraceID != 1 || len(a[0].Root.Children) != 2 {
		t.Fatalf("trees = %s", ja)
	}
	// Equal-start children tie-break by SpanID.
	if a[0].Root.Children[0].SpanID != 2 || a[0].Root.Children[1].SpanID != 3 {
		t.Fatalf("child order = %+v", a[0].Root.Children)
	}
}

// TestRecordNoLargerThanEvent: the ring's compact record costs no more
// memory per slot than the Event it renders to.
func TestRecordNoLargerThanEvent(t *testing.T) {
	if r, e := unsafe.Sizeof(record{}), unsafe.Sizeof(Event{}); r > e {
		t.Fatalf("record is %d bytes, Event %d", r, e)
	}
}

// TestDetailRenderMatchesSprintf: every lazily rendered detail kind
// produces the bytes of the fmt.Sprintf it replaces, and an rpc span
// ended with an error gains the same " err=<class>" suffix.
func TestDetailRenderMatchesSprintf(t *testing.T) {
	const (
		site  = protocol.SiteID(3)
		root  = protocol.SiteSet(0b1011)
		wt    = int64(-7)
		dests = 4
	)
	// Values above MaxInt64 must render unsigned.
	ver, clos := uint64(1<<63+5), protocol.SiteSet(1<<63|1)
	req := protocol.PrepareWriteRequest{}
	cases := []struct {
		name string
		r    record
		want string
	}{
		{"none", record{}, ""},
		{"text", record{det: detText, str: "donor=site1 installed=3 bytes=96"}, "donor=site1 installed=3 bytes=96"},
		{"handle", record{det: detHandle, str: req.Kind(), a: int64(site)}, fmt.Sprintf("req=%s from=%v", req.Kind(), site)},
		{"call", record{det: detCall, str: req.Kind(), a: int64(site)}, fmt.Sprintf("call to=%v req=%s", site, req.Kind())},
		{"fetch", record{det: detFetch, str: req.Kind(), a: int64(site)}, fmt.Sprintf("fetch to=%v req=%s", site, req.Kind())},
		{"broadcast", record{det: detBroadcast, str: req.Kind(), a: dests}, fmt.Sprintf("broadcast dests=%d req=%s", dests, req.Kind())},
		{"notify", record{det: detNotify, str: req.Kind(), a: dests}, fmt.Sprintf("notify dests=%d req=%s", dests, req.Kind())},
		{"op err", record{det: detErr, str: ClassUnreachable}, "err=" + ClassUnreachable},
		{"participants", record{det: detParticipants, a: 5}, fmt.Sprintf("participants=%d", 5)},
		{"quorum", record{det: detQuorum, a: 3, b: wt}, fmt.Sprintf("participants=%d weight=%d", 3, wt)},
		{"version", record{det: detVersion, a: int64(ver)}, fmt.Sprintf("version=%d", ver)},
		{"lazy refresh", record{det: detLazyRefresh, a: int64(site), b: int64(ver)}, fmt.Sprintf("from=%v version=%d", site, ver)},
		{"w transition", record{det: detWTransition, a: int64(root), b: int64(clos)}, fmt.Sprintf("%v->%v", root, clos)},
		{"closure", record{det: detClosure, a: int64(root), b: int64(clos), str: "false"}, fmt.Sprintf("root=%v closure=%v complete=%t", root, clos, false)},
		{"phase", record{det: detPhase, str: protocol.PhaseStraggler, a: 12345}, fmt.Sprintf("phase=%s dur_ns=%d", protocol.PhaseStraggler, 12345)},
		{"window", record{det: detWindow, str: "closed"}, "window=" + "closed"},
		{"demoted", record{det: detDemoted, a: int64(site), str: "retries exhausted"}, fmt.Sprintf("demoted donor=%v reason=%s", site, "retries exhausted")},
	}
	for _, c := range cases {
		if got := c.r.detail(); got != c.want {
			t.Errorf("%s: detail %q, want %q", c.name, got, c.want)
		}
	}

	// rpc spans, as MeteredTransport records them, with and without an
	// error suffix.
	tr := NewTracer(16, NewLogicalClock(1).Now)
	fail := fmt.Errorf("wrapped: %w", protocol.ErrSiteDown)
	for _, c := range []struct {
		det  uint8
		a    int64
		err  error
		want string
	}{
		{detCall, int64(site), nil, fmt.Sprintf("call to=%v req=%s", site, req.Kind())},
		{detFetch, int64(site), fail, fmt.Sprintf("fetch to=%v req=%s", site, req.Kind()) + " err=" + ClassDown},
		{detBroadcast, dests, nil, fmt.Sprintf("broadcast dests=%d req=%s", dests, req.Kind())},
		{detNotify, dests, fail, fmt.Sprintf("notify dests=%d req=%s", dests, req.Kind()) + " err=" + ClassDown},
	} {
		span := rpcSpan{t: tr, r: record{kind: kRPC, det: c.det, a: c.a, str: req.Kind()}}
		span.end(c.err)
		evs := tr.Events()
		if got := evs[len(evs)-1]; got.Kind != EvRPC || got.Detail != c.want {
			t.Errorf("rpc span event %s %q, want %s %q", got.Kind, got.Detail, EvRPC, c.want)
		}
	}
}

// TestEmitKeepsLiteralEvents: an event emitted whole keeps its kind and
// detail exactly, including a kind outside the package's table.
func TestEmitKeepsLiteralEvents(t *testing.T) {
	tr := NewTracer(8, NewLogicalClock(1).Now)
	in := []Event{
		{TraceID: 1, SpanID: 2, ParentID: 3, Scheme: "ac", Site: 2, Op: "write", Kind: EvHandle, Block: 9, Detail: "req=put from=site1"},
		{Site: 1, Kind: EvOpStart, Block: NoBlock},
		{Site: 4, Kind: "custom_kind", Op: "compact", Block: 1, Detail: "a\x00b"},
	}
	for _, e := range in {
		tr.Emit(e)
	}
	out := tr.Events()
	for i, e := range in {
		e.Seq, e.At = out[i].Seq, out[i].At
		if out[i] != e {
			t.Errorf("event %d = %+v, want %+v", i, out[i], e)
		}
	}
}
