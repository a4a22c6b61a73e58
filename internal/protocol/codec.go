package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"relidev/internal/block"
)

// The wire codec: one hand-written binary encoding for every protocol
// message, whose encoded length is exactly WireSize. rpcnet wraps it in
// its frame and exchange envelope; nothing else about a message crosses
// the process boundary.
//
// A message is an 8-byte header followed by its body:
//
//	offset 0  uint32  body length in bytes
//	offset 4  uint8   kind tag (one per message type, below)
//	offset 5  uint8   codec version (wireVersion)
//	offset 6  2 bytes magic "rd"
//
// Integers are little-endian and fixed width: block.Index 4 bytes,
// block.Version, SiteSet, weights and sums 8, SiteState and bools one
// byte each (a bool is 0 or 1; anything else is malformed).
// RecoveryRequest.MaxBlocks travels as a signed 32-bit page bound,
// clamped into that range on encode. A message's last variable-length
// field (block data, a version vector, a want-list, a snapshot) runs to
// the end of the body and carries no length of its own; a vector
// followed by more fields carries a uint32 element count, and every
// BlockCopy carries a uint32 data length.
//
// Decoding copies all byte payloads out of the input, so decoded values
// never alias the caller's buffer, and normalises empty variable fields:
// a zero-length []byte, block.Vector, []BlockCopy or []BlockWant
// decodes as nil. Unknown kinds, a wrong version or magic,
// truncated bodies and trailing bytes are all ErrMalformed.
const (
	wireHeader  = 8
	wireVersion = 1
	wireMagic0  = 'r'
	wireMagic1  = 'd'
)

// Kind tags, one per message type. Zero is never sent.
const (
	tagVoteRequest byte = iota + 1
	tagVoteReply
	tagFetchRequest
	tagFetchReply
	tagPutRequest
	tagPutReply
	tagPrepareWriteRequest
	tagPrepareWriteReply
	tagAbortWriteRequest
	tagAbortWriteReply
	tagStatusRequest
	tagStatusReply
	tagRecoveryRequest
	tagRecoveryReply
	tagRepairSummaryRequest
	tagRepairSummaryReply
	tagRepairFetchRequest
	tagRepairFetchReply
	tagTelemetryPullRequest
	tagTelemetryPullReply
)

// ErrMalformed marks input that is not a well-formed protocol message.
var ErrMalformed = errors.New("protocol: malformed wire message")

var le = binary.LittleEndian

// AppendMessage appends the wire encoding of msg to b and returns the
// extended slice; exactly WireSize(msg) bytes are appended. It fails,
// leaving b as it was, for a value that is not a protocol message.
func AppendMessage(b []byte, msg interface{}) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, wireVersion, wireMagic0, wireMagic1)
	var tag byte
	switch m := msg.(type) {
	case VoteRequest:
		tag = tagVoteRequest
		b = le.AppendUint32(b, uint32(m.Block))
	case VoteReply:
		tag = tagVoteReply
		b = le.AppendUint64(b, uint64(m.Version))
		b = le.AppendUint64(b, uint64(m.Weight))
		b = append(b, byte(m.State), boolByte(m.Witness))
	case FetchRequest:
		tag = tagFetchRequest
		b = le.AppendUint32(b, uint32(m.Block))
	case FetchReply:
		tag = tagFetchReply
		b = le.AppendUint64(b, uint64(m.Version))
		b = append(b, m.Data...)
	case PutRequest:
		tag = tagPutRequest
		b = le.AppendUint32(b, uint32(m.Block))
		b = le.AppendUint64(b, uint64(m.Version))
		b = le.AppendUint64(b, uint64(m.WasAvail))
		b = append(b, boolByte(m.HasW), boolByte(m.ReplaceW))
		b = append(b, m.Data...)
	case PutReply:
		tag = tagPutReply
	case PrepareWriteRequest:
		tag = tagPrepareWriteRequest
		b = le.AppendUint32(b, uint32(m.Block))
		b = le.AppendUint64(b, uint64(m.Version))
		b = append(b, m.Data...)
	case PrepareWriteReply:
		tag = tagPrepareWriteReply
		b = le.AppendUint64(b, uint64(m.Version))
		b = le.AppendUint64(b, uint64(m.Weight))
		b = append(b, byte(m.State), boolByte(m.Witness), boolByte(m.Staged))
	case AbortWriteRequest:
		tag = tagAbortWriteRequest
		b = le.AppendUint32(b, uint32(m.Block))
		b = le.AppendUint64(b, uint64(m.Version))
	case AbortWriteReply:
		tag = tagAbortWriteReply
	case StatusRequest:
		tag = tagStatusRequest
	case StatusReply:
		tag = tagStatusReply
		b = append(b, byte(m.State))
		b = le.AppendUint64(b, uint64(m.WasAvail))
		b = le.AppendUint64(b, m.VersionSum)
		b = append(b, boolByte(m.Witness))
	case RecoveryRequest:
		tag = tagRecoveryRequest
		b = append(b, boolByte(m.JoinW))
		b = le.AppendUint32(b, uint32(int32(max(math.MinInt32, min(m.MaxBlocks, math.MaxInt32)))))
		b = le.AppendUint32(b, uint32(m.Cont))
		b = appendVector(b, m.Vector)
	case RecoveryReply:
		tag = tagRecoveryReply
		b = le.AppendUint64(b, uint64(m.WasAvail))
		b = append(b, boolByte(m.More))
		b = le.AppendUint32(b, uint32(m.Next))
		b = le.AppendUint32(b, uint32(len(m.Vector)))
		b = appendVector(b, m.Vector)
		b = appendBlocks(b, m.Blocks)
	case RepairSummaryRequest:
		tag = tagRepairSummaryRequest
	case RepairSummaryReply:
		tag = tagRepairSummaryReply
		b = append(b, byte(m.State), boolByte(m.Witness))
		b = appendVector(b, m.Vector)
	case RepairFetchRequest:
		tag = tagRepairFetchRequest
		for _, w := range m.Wants {
			b = le.AppendUint32(b, uint32(w.Index))
			b = le.AppendUint64(b, uint64(w.MinVersion))
		}
	case RepairFetchReply:
		tag = tagRepairFetchReply
		b = appendBlocks(b, m.Blocks)
	case TelemetryPullRequest:
		tag = tagTelemetryPullRequest
	case TelemetryPullReply:
		tag = tagTelemetryPullReply
		b = append(b, m.Snap...)
	default:
		return b[:start], fmt.Errorf("protocol: cannot encode %T: not a protocol message", msg)
	}
	body := len(b) - start - wireHeader
	if uint64(body) > math.MaxUint32 {
		return b[:start], fmt.Errorf("protocol: %T body of %d bytes exceeds the uint32 length field", msg, body)
	}
	le.PutUint32(b[start:], uint32(body))
	b[start+4] = tag
	return b, nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendVector(b []byte, v block.Vector) []byte {
	for _, ver := range v {
		b = le.AppendUint64(b, uint64(ver))
	}
	return b
}

func appendBlocks(b []byte, blocks []BlockCopy) []byte {
	for _, c := range blocks {
		b = le.AppendUint32(b, uint32(c.Index))
		b = le.AppendUint64(b, uint64(c.Version))
		b = le.AppendUint32(b, uint32(len(c.Data)))
		b = append(b, c.Data...)
	}
	return b
}

// DecodeRequest decodes one request message that fills b exactly.
func DecodeRequest(b []byte) (Request, error) {
	m, err := decodeMessage(b)
	if err != nil {
		return nil, err
	}
	req, ok := m.(Request)
	if !ok {
		return nil, fmt.Errorf("%w: %T where a request was expected", ErrMalformed, m)
	}
	return req, nil
}

// DecodeResponse decodes one response message that fills b exactly.
func DecodeResponse(b []byte) (Response, error) {
	m, err := decodeMessage(b)
	if err != nil {
		return nil, err
	}
	resp, ok := m.(Response)
	if !ok {
		return nil, fmt.Errorf("%w: %T where a response was expected", ErrMalformed, m)
	}
	return resp, nil
}

func decodeMessage(b []byte) (interface{}, error) {
	if len(b) < wireHeader {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the header", ErrMalformed, len(b))
	}
	if b[5] != wireVersion || b[6] != wireMagic0 || b[7] != wireMagic1 {
		return nil, fmt.Errorf("%w: bad magic or codec version %d (want %d)", ErrMalformed, b[5], wireVersion)
	}
	if n := le.Uint32(b); uint64(n) != uint64(len(b)-wireHeader) {
		return nil, fmt.Errorf("%w: header claims a %d-byte body, %d bytes present", ErrMalformed, n, len(b)-wireHeader)
	}
	d := decoder{b: b[wireHeader:]}
	var m interface{}
	// Composite literal fields are decoded in lexical order (function
	// and method calls in an expression are evaluated left to right),
	// which is the wire order of each body.
	switch tag := b[4]; tag {
	case tagVoteRequest:
		m = VoteRequest{Block: d.index()}
	case tagVoteReply:
		m = VoteReply{Version: d.version(), Weight: int64(d.u64()), State: d.state(), Witness: d.bool()}
	case tagFetchRequest:
		m = FetchRequest{Block: d.index()}
	case tagFetchReply:
		m = FetchReply{Version: d.version(), Data: d.rest()}
	case tagPutRequest:
		m = PutRequest{Block: d.index(), Version: d.version(), WasAvail: SiteSet(d.u64()),
			HasW: d.bool(), ReplaceW: d.bool(), Data: d.rest()}
	case tagPutReply:
		m = PutReply{}
	case tagPrepareWriteRequest:
		m = PrepareWriteRequest{Block: d.index(), Version: d.version(), Data: d.rest()}
	case tagPrepareWriteReply:
		m = PrepareWriteReply{Version: d.version(), Weight: int64(d.u64()), State: d.state(),
			Witness: d.bool(), Staged: d.bool()}
	case tagAbortWriteRequest:
		m = AbortWriteRequest{Block: d.index(), Version: d.version()}
	case tagAbortWriteReply:
		m = AbortWriteReply{}
	case tagStatusRequest:
		m = StatusRequest{}
	case tagStatusReply:
		m = StatusReply{State: d.state(), WasAvail: SiteSet(d.u64()), VersionSum: d.u64(), Witness: d.bool()}
	case tagRecoveryRequest:
		m = RecoveryRequest{JoinW: d.bool(), MaxBlocks: int(int32(d.u32())), Cont: d.index(),
			Vector: d.vector(d.trailing(8))}
	case tagRecoveryReply:
		m = RecoveryReply{WasAvail: SiteSet(d.u64()), More: d.bool(), Next: d.index(),
			Vector: d.vector(int(d.u32())), Blocks: d.blocks()}
	case tagRepairSummaryRequest:
		m = RepairSummaryRequest{}
	case tagRepairSummaryReply:
		m = RepairSummaryReply{State: d.state(), Witness: d.bool(), Vector: d.vector(d.trailing(8))}
	case tagRepairFetchRequest:
		m = RepairFetchRequest{Wants: d.wants()}
	case tagRepairFetchReply:
		m = RepairFetchReply{Blocks: d.blocks()}
	case tagTelemetryPullRequest:
		m = TelemetryPullRequest{}
	case tagTelemetryPullReply:
		m = TelemetryPullReply{Snap: d.rest()}
	default:
		return nil, fmt.Errorf("%w: unknown kind tag %d", ErrMalformed, tag)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %T", ErrMalformed, len(d.b), m)
	}
	return m, nil
}

// decoder reads fixed-width fields off a message body. The first
// short read latches err; every later read then yields a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.err = fmt.Errorf("%w: body truncated (%d bytes wanted, %d left)", ErrMalformed, n, len(d.b))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

func (d *decoder) index() block.Index     { return block.Index(d.u32()) }
func (d *decoder) version() block.Version { return block.Version(d.u64()) }

func (d *decoder) state() SiteState {
	if p := d.take(1); p != nil {
		return SiteState(p[0])
	}
	return 0
}

func (d *decoder) bool() bool {
	p := d.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		d.err = fmt.Errorf("%w: bool byte %d", ErrMalformed, p[0])
	}
	return p[0] == 1
}

// data copies the next n bytes; zero bytes decode as nil.
func (d *decoder) data(n int) []byte {
	p := d.take(n)
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// rest copies the remainder of the body, the trailing variable field.
// It is a method so that, inside a composite literal, it is ordered
// after the field reads before it.
func (d *decoder) rest() []byte { return d.data(len(d.b)) }

// trailing returns how many elements of the given width fill the rest
// of the body, latching an error when the rest is not a whole number.
func (d *decoder) trailing(width int) int {
	if d.err == nil && len(d.b)%width != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes are not a whole number of %d-byte elements", ErrMalformed, len(d.b), width)
	}
	return len(d.b) / width
}

// vector reads n versions. The bytes are taken before anything is
// allocated, so a lying count fails without allocating for it.
func (d *decoder) vector(n int) block.Vector {
	if d.err == nil && (n < 0 || n > len(d.b)/8) {
		d.err = fmt.Errorf("%w: vector of %d versions, %d bytes left", ErrMalformed, n, len(d.b))
	}
	p := d.take(8 * n)
	if len(p) == 0 {
		return nil
	}
	v := make(block.Vector, n)
	for i := range v {
		v[i] = block.Version(le.Uint64(p[8*i:]))
	}
	return v
}

func (d *decoder) wants() []BlockWant {
	n := d.trailing(12)
	p := d.take(12 * n)
	if len(p) == 0 {
		return nil
	}
	w := make([]BlockWant, n)
	for i := range w {
		w[i] = BlockWant{Index: block.Index(le.Uint32(p[12*i:])), MinVersion: block.Version(le.Uint64(p[12*i+4:]))}
	}
	return w
}

// blocks reads BlockCopy records to the end of the body. A first pass
// walks the record lengths, so the slice is allocated once and only
// for records the body really holds.
func (d *decoder) blocks() []BlockCopy {
	n := 0
	for p := d.b; len(p) >= 16 && uint64(le.Uint32(p[12:])) <= uint64(len(p)-16); n++ {
		p = p[16+int(le.Uint32(p[12:])):]
	}
	if d.err != nil || len(d.b) == 0 {
		return nil
	}
	out := make([]BlockCopy, 0, n)
	for d.err == nil && len(d.b) > 0 {
		c := BlockCopy{Index: d.index(), Version: d.version()}
		c.Data = d.data(int(d.u32()))
		out = append(out, c)
	}
	return out
}
