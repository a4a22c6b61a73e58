package protocol

// WireSize returns the exact length in bytes of the wire encoding of a
// protocol message (AppendMessage), used by simnet's byte-level traffic
// accounting. §5 notes that accounting by message *size* instead of
// message *count* yields similar, slightly less pronounced differences
// between the schemes — block transfers dominate and every scheme ships
// roughly the same blocks; the byte counters let experiments verify
// that claim, and since rpcnet sends exactly these bytes they price
// the real wire, not a model of it. rpcnet's own frame and exchange
// envelope (sender, trace context, error) are transport overhead and
// are not counted.
//
// WireSize is arithmetic over field widths and lengths; it never
// encodes. Every message carries the 8-byte header described in
// codec.go. Unknown message types count as a bare header.
func WireSize(msg interface{}) int {
	switch m := msg.(type) {
	case VoteRequest:
		return wireHeader + 4
	case VoteReply:
		return wireHeader + 8 + 8 + 1 + 1
	case FetchRequest:
		return wireHeader + 4
	case FetchReply:
		return wireHeader + 8 + len(m.Data)
	case PutRequest:
		return wireHeader + 4 + 8 + 8 + 2 + len(m.Data)
	case PutReply:
		return wireHeader
	case PrepareWriteRequest:
		return wireHeader + 4 + 8 + len(m.Data)
	case PrepareWriteReply:
		return wireHeader + 8 + 8 + 1 + 1 + 1
	case AbortWriteRequest:
		return wireHeader + 4 + 8
	case AbortWriteReply:
		return wireHeader
	case StatusRequest:
		return wireHeader
	case StatusReply:
		return wireHeader + 8 + 8 + 1 + 1
	case RecoveryRequest:
		return wireHeader + 1 + 8*len(m.Vector) + 4 + 4
	case RecoveryReply:
		// The vector is followed by the blocks, so it carries a 4-byte
		// count; each block carries a 4-byte data length.
		return wireHeader + 8 + 1 + 4 + 4 + 8*len(m.Vector) + blockCopiesSize(m.Blocks)
	case RepairSummaryRequest:
		return wireHeader
	case RepairSummaryReply:
		return wireHeader + 1 + 1 + 8*len(m.Vector)
	case RepairFetchRequest:
		return wireHeader + 12*len(m.Wants)
	case RepairFetchReply:
		return wireHeader + blockCopiesSize(m.Blocks)
	case TelemetryPullRequest:
		return wireHeader
	case TelemetryPullReply:
		return wireHeader + len(m.Snap)
	default:
		return wireHeader
	}
}

// blockCopiesSize is the encoded size of a block list: index, version
// and data length per copy, then the data.
func blockCopiesSize(blocks []BlockCopy) int {
	size := 0
	for _, b := range blocks {
		size += 4 + 8 + 4 + len(b.Data)
	}
	return size
}
