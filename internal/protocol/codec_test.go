package protocol

import (
	"errors"
	"reflect"
	"testing"

	"relidev/internal/block"
)

// codecCase is one message and the value decoding its encoding must
// give back: the message itself, except that empty variable-length
// fields decode as nil.
type codecCase struct {
	name string
	msg  interface{}
	want interface{} // nil means msg
}

// codecCases has, for every message type, a populated entry and (where
// the type has variable-length fields) an entry with empty ones.
func codecCases() []codecCase {
	vec := block.Vector{3, 0, 7, 1 << 40}
	blocks := []BlockCopy{
		{Index: 2, Data: []byte("block two"), Version: 9},
		{Index: 5, Data: nil, Version: 1},
		{Index: 1 << 31, Data: []byte{0, 0xff}, Version: 1<<64 - 1},
	}
	return []codecCase{
		{name: "vote", msg: VoteRequest{Block: 7}},
		{name: "vote-reply", msg: VoteReply{Version: 12, Weight: -1500, State: StateComatose, Witness: true}},
		{name: "fetch", msg: FetchRequest{Block: 1<<32 - 1}},
		{name: "fetch-reply", msg: FetchReply{Data: []byte("payload"), Version: 4}},
		{name: "fetch-reply/empty", msg: FetchReply{Data: []byte{}, Version: 4}, want: FetchReply{Version: 4}},
		{name: "put", msg: PutRequest{Block: 3, Data: []byte("abc"), Version: 8, HasW: true, WasAvail: NewSiteSet(0, 2, 63), ReplaceW: true}},
		{name: "put/empty", msg: PutRequest{Block: 3, Data: []byte{}}, want: PutRequest{Block: 3}},
		{name: "put-reply", msg: PutReply{}},
		{name: "prepare-write", msg: PrepareWriteRequest{Block: 6, Data: []byte("xyz"), Version: 2}},
		{name: "prepare-write/empty", msg: PrepareWriteRequest{Data: []byte{}}, want: PrepareWriteRequest{}},
		{name: "prepare-write-reply", msg: PrepareWriteReply{Version: 5, Weight: 1000, State: StateAvailable, Witness: false, Staged: true}},
		{name: "abort-write", msg: AbortWriteRequest{Block: 9, Version: 10}},
		{name: "abort-write-reply", msg: AbortWriteReply{}},
		{name: "status", msg: StatusRequest{}},
		{name: "status-reply", msg: StatusReply{State: StateFailed, WasAvail: NewSiteSet(1), VersionSum: 1 << 50, Witness: true}},
		{name: "recovery", msg: RecoveryRequest{Vector: vec, JoinW: true, MaxBlocks: 64, Cont: 17}},
		{name: "recovery/negative-page", msg: RecoveryRequest{MaxBlocks: -3}},
		{name: "recovery/empty", msg: RecoveryRequest{Vector: block.Vector{}}, want: RecoveryRequest{}},
		{name: "recovery-reply", msg: RecoveryReply{Vector: vec, Blocks: blocks, WasAvail: NewSiteSet(0, 1), More: true, Next: 33}},
		{name: "recovery-reply/empty", msg: RecoveryReply{Vector: block.Vector{}, Blocks: []BlockCopy{}}, want: RecoveryReply{}},
		{name: "repair-summary", msg: RepairSummaryRequest{}},
		{name: "repair-summary-reply", msg: RepairSummaryReply{Vector: vec, State: StateAvailable, Witness: true}},
		{name: "repair-summary-reply/empty", msg: RepairSummaryReply{Vector: block.Vector{}}, want: RepairSummaryReply{}},
		{name: "repair-fetch", msg: RepairFetchRequest{Wants: []BlockWant{{Index: 1, MinVersion: 2}, {Index: 9, MinVersion: 1 << 33}}}},
		{name: "repair-fetch/empty", msg: RepairFetchRequest{Wants: []BlockWant{}}, want: RepairFetchRequest{}},
		{name: "repair-fetch-reply", msg: RepairFetchReply{Blocks: blocks}},
		{name: "repair-fetch-reply/empty", msg: RepairFetchReply{Blocks: []BlockCopy{}}, want: RepairFetchReply{}},
		{name: "telemetry-pull", msg: TelemetryPullRequest{}},
		{name: "telemetry-pull-reply", msg: TelemetryPullReply{Snap: []byte(`{"series":[]}`)}},
		{name: "telemetry-pull-reply/empty", msg: TelemetryPullReply{Snap: []byte{}}, want: TelemetryPullReply{}},
	}
}

// TestCodecConformance: every message type round-trips through the
// codec, and its encoding is exactly WireSize bytes — the §5 byte price
// is the length on the wire.
func TestCodecConformance(t *testing.T) {
	covered := make(map[reflect.Type]bool)
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			covered[reflect.TypeOf(tc.msg)] = true
			want := tc.want
			if want == nil {
				want = tc.msg
			}
			prefix := []byte("prefix")
			enc, err := AppendMessage(prefix, tc.msg)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if string(enc[:len(prefix)]) != "prefix" {
				t.Fatal("AppendMessage overwrote the bytes it appends to")
			}
			enc = enc[len(prefix):]
			if len(enc) != WireSize(tc.msg) {
				t.Fatalf("encoded %d bytes, WireSize says %d", len(enc), WireSize(tc.msg))
			}
			var got interface{}
			if _, isReq := tc.msg.(Request); isReq {
				got, err = DecodeRequest(enc)
			} else {
				got, err = DecodeResponse(enc)
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %#v, want %#v", got, want)
			}
			// Decoded payloads are copies: scribbling over the input must
			// not reach them.
			for i := range enc {
				enc[i] = 0xAA
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded value aliases the input buffer: %#v", got)
			}
		})
	}
	// One table entry per message type: any type with a Kind or
	// RespKind method that the table misses is a coverage gap.
	for _, m := range []interface{}{
		VoteRequest{}, VoteReply{}, FetchRequest{}, FetchReply{}, PutRequest{}, PutReply{},
		PrepareWriteRequest{}, PrepareWriteReply{}, AbortWriteRequest{}, AbortWriteReply{},
		StatusRequest{}, StatusReply{}, RecoveryRequest{}, RecoveryReply{},
		RepairSummaryRequest{}, RepairSummaryReply{}, RepairFetchRequest{}, RepairFetchReply{},
		TelemetryPullRequest{}, TelemetryPullReply{},
	} {
		if !covered[reflect.TypeOf(m)] {
			t.Errorf("%T has no codec conformance entry", m)
		}
	}
}

// TestCodecClampsPageBound: a MaxBlocks beyond 32 bits travels as the
// largest bound the wire holds, never as a wrapped (negative) one.
func TestCodecClampsPageBound(t *testing.T) {
	enc, err := AppendMessage(nil, RecoveryRequest{MaxBlocks: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if mb := got.(RecoveryRequest).MaxBlocks; mb != 1<<31-1 {
		t.Fatalf("MaxBlocks = %d, want %d", mb, 1<<31-1)
	}
}

func TestCodecRejectsNonMessages(t *testing.T) {
	b := []byte("keep")
	out, err := AppendMessage(b, struct{ X int }{})
	if err == nil {
		t.Fatal("encoded a non-message")
	}
	if string(out) != "keep" {
		t.Fatalf("failed encode left %q, want the input unchanged", out)
	}
	enc, _ := AppendMessage(nil, VoteRequest{})
	if _, err := DecodeResponse(enc); !errors.Is(err, ErrMalformed) {
		t.Fatalf("request decoded as a response: %v", err)
	}
	enc, _ = AppendMessage(nil, VoteReply{})
	if _, err := DecodeRequest(enc); !errors.Is(err, ErrMalformed) {
		t.Fatalf("response decoded as a request: %v", err)
	}
}

// TestCodecRejectsMalformed: every way a body can disagree with its
// header or its kind's layout is an ErrMalformed, never a panic or a
// silently different value.
func TestCodecRejectsMalformed(t *testing.T) {
	enc := func(m interface{}) []byte {
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mutate := func(b []byte, f func([]byte) []byte) []byte {
		return f(append([]byte(nil), b...))
	}
	vote := enc(VoteReply{Version: 1, Witness: true})
	rec := enc(RecoveryReply{Vector: block.Vector{1, 2}, Blocks: []BlockCopy{{Index: 1, Data: []byte("ab")}}})
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   vote[:5],
		"unknown kind":   mutate(vote, func(b []byte) []byte { b[4] = 0; return b }),
		"kind past end":  mutate(vote, func(b []byte) []byte { b[4] = 200; return b }),
		"bad version":    mutate(vote, func(b []byte) []byte { b[5] = 2; return b }),
		"bad magic":      mutate(vote, func(b []byte) []byte { b[6] = 'x'; return b }),
		"truncated":      vote[:len(vote)-1],
		"trailing bytes": append(mutate(vote, func(b []byte) []byte { b[0]++; return b }), 0),
		"length lies":    mutate(vote, func(b []byte) []byte { b[0]++; return b }),
		"bool byte 2":    mutate(vote, func(b []byte) []byte { b[len(b)-1] = 2; return b }),
		"vector count lies": mutate(rec, func(b []byte) []byte {
			b[wireHeader+13] = 0xff
			return b
		}),
		"block data length lies": mutate(rec, func(b []byte) []byte {
			b[len(b)-3] = 9
			return b
		}),
		"ragged vector": mutate(enc(RepairSummaryReply{Vector: block.Vector{1}}), func(b []byte) []byte {
			b[0]--
			return b[:len(b)-1]
		}),
		"ragged want-list": mutate(enc(RepairFetchRequest{Wants: []BlockWant{{Index: 1}}}), func(b []byte) []byte {
			b[0]++
			return append(b, 0)
		}),
	}
	for name, b := range cases {
		if _, err := decodeMessage(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decode err = %v, want ErrMalformed", name, err)
		}
	}
}
