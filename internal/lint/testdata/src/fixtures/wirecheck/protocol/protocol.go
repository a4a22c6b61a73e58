// Fixtures for wirecheck: every request/reply type must have a
// WireSize case, a case in the AppendMessage encode switch, and
// (requests) a KindOps entry.
package protocol

import "errors"

// ok: fully wired — sized, encoded, and priced.
type VoteRequest struct{ Block uint32 }

func (VoteRequest) Kind() string { return "vote" }

type VoteReply struct{ Version uint64 }

func (VoteReply) RespKind() string { return "vote-reply" }

// A new RPC that skips every registry: its traffic would ride the wire
// unsized, unencodable, and invisible to the §5 pricing tables.
type PingRequest struct{} // want "no WireSize case" "no case in the AppendMessage encode switch" "missing from the KindOps"

func (PingRequest) Kind() string { return "ping" }

// A reply that is encoded but never priced undercounts as a bare
// header in the byte accounting.
type PongReply struct{} // want "no WireSize case"

func (PongReply) RespKind() string { return "pong" }

const wireHeader = 8

func WireSize(msg interface{}) int {
	switch msg.(type) {
	case VoteRequest:
		return wireHeader + 4
	case VoteReply:
		return wireHeader + 8
	default:
		return wireHeader
	}
}

func AppendMessage(b []byte, msg interface{}) ([]byte, error) {
	switch m := msg.(type) {
	case VoteRequest:
		return append(b, byte(m.Block)), nil
	case VoteReply:
		return append(b, byte(m.Version)), nil
	case PongReply:
		return b, nil
	default:
		return b, errors.New("not a protocol message")
	}
}

var KindOps = map[string][]string{
	"vote":   {"write", "read"},
	"status": {"recovery"}, // want "no request type declares it"
}
