package obs

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"relidev/internal/protocol"
)

// Trace event kinds. Each names the protocol moment it records; the
// paper quantity every kind observes is tabulated in DESIGN.md §10.
const (
	// EvOpStart / EvOpEnd bracket one controller operation (an §5
	// cost-table row: write, read, or recovery).
	EvOpStart = "op_start"
	EvOpEnd   = "op_end"
	// EvQuorumAssembled records a voting quorum collection (Figures 3
	// and 4): how many sites answered and the weight gathered.
	EvQuorumAssembled = "quorum_assembled"
	// EvVersionResolved records the version-resolution step: the
	// maximal version among the collected votes (the MCV rule).
	EvVersionResolved = "version_resolved"
	// EvLazyRefresh records a voting read repairing a stale local copy
	// with one block fetch (§5.1's "at most U_V+1" read).
	EvLazyRefresh = "lazy_refresh"
	// EvWTransition records a change of a site's was-available set W_s
	// (§3.2): coordinator resets, piggyback merges, recovery joins.
	EvWTransition = "w_transition"
	// EvClosureRecomputed records an available copy recovery evaluating
	// the closure C*(W_s) (Figure 5 / Definition 3.2).
	EvClosureRecomputed = "closure_recomputed"
	// EvRPC records the client side of one remote call: a child span the
	// metering transport opens under the operation span before the
	// request leaves the site.
	EvRPC = "rpc"
	// EvHandle records the server side: the remote replica serving a
	// request under the caller's wire-propagated span context.
	EvHandle = "handle"
	// EvRepairPage records one page of the background anti-entropy
	// stream (DESIGN.md §13): which donor served it and how many blocks
	// and bytes it carried.
	EvRepairPage = "repair_page"
	// EvRepairDonor records a donor lifecycle moment in a repair run:
	// enlisted at discovery, demoted after repeated failure, or the
	// target of a mid-stream failover.
	EvRepairDonor = "repair_donor"
	// EvPhase records one critical-path phase of a closed operation
	// span (DESIGN.md §15): a child span whose Detail carries
	// "phase=<name> dur_ns=<n>". Emitted at op close, so the phase
	// spans of an op sit under its op span in the stitched tree.
	EvPhase = "phase"
	// EvRepairWindow records a repair-interference window edge: the
	// background repairer opening (window=open) or closing
	// (window=closed) its streaming window at a site.
	EvRepairWindow = "repair_window"
)

// An Event is one structured trace record. Block is -1 when the event
// is not about a particular block.
//
// TraceID/SpanID/ParentID place the event in a cluster-wide span tree
// (zero when tracing is off or the caller is untraced): every event of
// one span shares a SpanID, the root span's SpanID doubles as the
// TraceID, and ParentID names the span one level up — on a remote site
// that parent lives in another process's ring, linked via the span
// context carried by the wire (rpcnet) or the shared context (simnet).
type Event struct {
	Seq      uint64 `json:"seq"`
	At       int64  `json:"at_ns"`
	TraceID  uint64 `json:"trace_id,omitempty"`
	SpanID   uint64 `json:"span_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	Site     int    `json:"site"`
	Op       string `json:"op,omitempty"`
	Kind     string `json:"kind"`
	Block    int64  `json:"block"`
	Detail   string `json:"detail,omitempty"`
}

// A record is one event as the ring stores it: the Event's identity
// fields, a kind code, and a detail code with typed arguments (ints and
// strings the caller already holds, such as a request kind or an error
// class). Recording copies these words and formats nothing; Events
// renders Detail when the ring is read. A record is no larger than the
// Event it renders to.
type record struct {
	seq uint64
	at  int64
	spanIDs
	scheme, op string
	// str, a and b are the detail arguments; det says how to render them.
	str         string
	block, a, b int64
	site        int32
	kind, det   uint8
}

// Kind codes index kindNames. kindOther marks an Event emitted with a
// kind outside this table: its record keeps the kind and detail
// strings joined by a NUL in str.
const (
	kOpStart uint8 = iota
	kOpEnd
	kQuorumAssembled
	kVersionResolved
	kLazyRefresh
	kWTransition
	kClosureRecomputed
	kRPC
	kHandle
	kRepairPage
	kRepairDonor
	kPhase
	kRepairWindow
	kindOther
)

var kindNames = [...]string{
	kOpStart:           EvOpStart,
	kOpEnd:             EvOpEnd,
	kQuorumAssembled:   EvQuorumAssembled,
	kVersionResolved:   EvVersionResolved,
	kLazyRefresh:       EvLazyRefresh,
	kWTransition:       EvWTransition,
	kClosureRecomputed: EvClosureRecomputed,
	kRPC:               EvRPC,
	kHandle:            EvHandle,
	kRepairPage:        EvRepairPage,
	kRepairDonor:       EvRepairDonor,
	kPhase:             EvPhase,
	kRepairWindow:      EvRepairWindow,
}

// Detail codes: how a record's str, a and b render into Event.Detail.
// Each comment gives the format the rendering reproduces.
const (
	detNone         uint8 = iota // ""
	detText                      // str, verbatim
	detHandle                    // "req=%s from=%v" str, SiteID(a)
	detCall                      // "call to=%v req=%s" SiteID(a), str
	detFetch                     // "fetch to=%v req=%s" SiteID(a), str
	detBroadcast                 // "broadcast dests=%d req=%s" a, str
	detNotify                    // "notify dests=%d req=%s" a, str
	detErr                       // "err=" + str
	detParticipants              // "participants=%d" a
	detQuorum                    // "participants=%d weight=%d" a, b
	detVersion                   // "version=%d" uint64(a)
	detLazyRefresh               // "from=%v version=%d" SiteID(a), uint64(b)
	detWTransition               // "%v->%v" SiteSet(a), SiteSet(b)
	detClosure                   // "root=%v closure=%v complete=%s" SiteSet(a), SiteSet(b), str
	detPhase                     // "phase=%s dur_ns=%d" str, a
	detWindow                    // "window=" + str
	detDemoted                   // "demoted donor=%v reason=%s" SiteID(a), str
)

// detail renders the record's Detail string.
func (r *record) detail() string {
	var b []byte
	site := func(v int64) { b = append(b, protocol.SiteID(v).String()...) }
	set := func(v int64) { b = append(b, protocol.SiteSet(uint64(v)).String()...) }
	num := func(v int64) { b = strconv.AppendInt(b, v, 10) }
	unum := func(v int64) { b = strconv.AppendUint(b, uint64(v), 10) }
	switch r.det {
	case detNone:
	case detText:
		return r.str
	case detHandle:
		b = append(b, "req="...)
		b = append(b, r.str...)
		b = append(b, " from="...)
		site(r.a)
	case detCall, detFetch:
		b = append(b, rpcVerbs[r.det]...)
		b = append(b, " to="...)
		site(r.a)
		b = append(b, " req="...)
		b = append(b, r.str...)
	case detBroadcast, detNotify:
		b = append(b, rpcVerbs[r.det]...)
		b = append(b, " dests="...)
		num(r.a)
		b = append(b, " req="...)
		b = append(b, r.str...)
	case detErr:
		return "err=" + r.str
	case detParticipants:
		b = append(b, "participants="...)
		num(r.a)
	case detQuorum:
		b = append(b, "participants="...)
		num(r.a)
		b = append(b, " weight="...)
		num(r.b)
	case detVersion:
		b = append(b, "version="...)
		unum(r.a)
	case detLazyRefresh:
		b = append(b, "from="...)
		site(r.a)
		b = append(b, " version="...)
		unum(r.b)
	case detWTransition:
		set(r.a)
		b = append(b, "->"...)
		set(r.b)
	case detClosure:
		b = append(b, "root="...)
		set(r.a)
		b = append(b, " closure="...)
		set(r.b)
		b = append(b, " complete="...)
		b = append(b, r.str...)
	case detPhase:
		b = append(b, "phase="...)
		b = append(b, r.str...)
		b = append(b, " dur_ns="...)
		num(r.a)
	case detWindow:
		return "window=" + r.str
	case detDemoted:
		b = append(b, "demoted donor="...)
		site(r.a)
		b = append(b, " reason="...)
		b = append(b, r.str...)
	}
	return string(b)
}

// rpcVerbs names the transport method of each rpc detail code.
var rpcVerbs = [...]string{detCall: "call", detFetch: "fetch", detBroadcast: "broadcast", detNotify: "notify"}

// event renders the record as the Event it was recorded from.
func (r *record) event() Event {
	e := Event{
		Seq: r.seq, At: r.at, TraceID: r.TraceID, SpanID: r.SpanID, ParentID: r.ParentID,
		Scheme: r.scheme, Site: int(r.site), Op: r.op, Block: r.block,
	}
	if r.kind == kindOther {
		e.Kind, e.Detail, _ = strings.Cut(r.str, "\x00")
		return e
	}
	e.Kind = kindNames[r.kind]
	e.Detail = r.detail()
	return e
}

// A Tracer collects events into a bounded ring buffer; when full, the
// oldest events are overwritten (Dropped counts them). The ring grows
// on demand up to its capacity, so a lightly used tracer stays small.
// Timestamps come from the injected clock and sequence numbers from an
// atomic counter, so with a LogicalClock the events are deterministic
// up to goroutine interleaving — and the ring never feeds replay
// digests. A nil *Tracer discards events.
type Tracer struct {
	clock Clock
	seq   atomic.Uint64
	cap   int

	mu      sync.Mutex
	ring    []record
	next    int
	dropped uint64
}

// NewTracer returns a tracer holding the last capacity events
// (capacity <= 0 means 4096), stamped by clock (nil means WallClock).
func NewTracer(capacity int, clock Clock) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	if clock == nil {
		clock = WallClock
	}
	return &Tracer{clock: clock, cap: capacity}
}

// Emit records one event, filling Seq and At. Its Detail is kept as
// given; the package's own emitters record typed arguments instead.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	r := record{
		spanIDs: spanIDs{TraceID: e.TraceID, SpanID: e.SpanID, ParentID: e.ParentID},
		scheme:  e.Scheme, site: int32(e.Site), op: e.Op, block: e.Block,
		kind: kindOther, str: e.Kind + "\x00" + e.Detail,
	}
	for k, name := range kindNames {
		if name == e.Kind {
			r.kind, r.det, r.str = uint8(k), detText, e.Detail
			break
		}
	}
	t.record(&r)
}

// stamp fills a record's sequence number and timestamp.
func (t *Tracer) stamp(r *record) {
	r.seq = t.seq.Add(1)
	r.at = t.clock()
}

// record stamps and stores one record.
func (t *Tracer) record(r *record) {
	t.stamp(r)
	t.mu.Lock()
	t.store(r)
	t.mu.Unlock()
}

// storeAll stores already stamped records under one lock, in order.
func (t *Tracer) storeAll(rs []record) {
	t.mu.Lock()
	for i := range rs {
		t.store(&rs[i])
	}
	t.mu.Unlock()
}

// store puts r in the ring, doubling the ring's backing array (never
// past the capacity) while it is still filling. Callers hold t.mu.
func (t *Tracer) store(r *record) {
	if n := len(t.ring); n < t.cap {
		if n == cap(t.ring) {
			grown := make([]record, n, min(max(2*n, 64), t.cap))
			copy(grown, t.ring)
			t.ring = grown
		}
		t.ring = append(t.ring, *r)
		return
	}
	t.ring[t.next] = *r
	t.dropped++
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
}

// Events returns the retained events, oldest first, with their details
// rendered.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	for _, part := range [2][]record{t.ring[t.next:], t.ring[:t.next]} {
		for i := range part {
			out = append(out, part[i].event())
		}
	}
	return out
}

// Dropped returns how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
