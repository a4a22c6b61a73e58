package rpcnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"

	"relidev/internal/protocol"
)

// Framing. Every exchange is one request frame and one response frame
// on a pooled TCP stream. A frame is a uint32 little-endian payload
// length followed by the payload:
//
//	request:  sender SiteID (int32) | TraceID (uint64) | SpanID (uint64) | message
//	response: error code (uint8) | error text length (uint32) | error text | message?
//
// The message is protocol.AppendMessage's encoding, so it is exactly
// protocol.WireSize bytes. A response without a message carries a nil
// Response (the usual shape of an error reply).
const (
	frameHeader     = 4
	requestEnvelope = 4 + 8 + 8
	responseHeader  = 1 + 4

	// maxFrame bounds one frame payload. A length prefix above it closes
	// the connection before anything is read or allocated for it. A
	// single-shot recovery reply of a device larger than this must use
	// paged recovery instead.
	maxFrame = 256 << 20

	// maxKeptBuf caps the read and write buffers a connection keeps
	// between exchanges; a buffer grown past it (a paged recovery reply,
	// say) is dropped after its exchange instead of pinned on every
	// pooled connection.
	maxKeptBuf = 64 << 10

	// minReadGrow is the first step by which the read buffer grows toward
	// a frame larger than it.
	minReadGrow = 4 << 10
)

// errBadFrame marks a frame that is oversized or does not decode. On
// the server it closes the connection; on the client it is a severed
// exchange.
var errBadFrame = errors.New("rpcnet: bad frame")

// rpcRequest is one request frame.
type rpcRequest struct {
	From protocol.SiteID
	Req  protocol.Request
	// Trace carries the caller's span context across the wire so the
	// remote site's trace ring records causally-linked spans (zero when
	// the caller is untraced).
	Trace protocol.SpanContext
}

// rpcResponse is one response frame.
type rpcResponse struct {
	Resp    protocol.Response
	ErrCode byte
	ErrText string
}

// appendFrame appends r as a complete frame, length prefix included.
func (r rpcRequest) appendFrame(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.From)))
	b = binary.LittleEndian.AppendUint64(b, r.Trace.TraceID)
	b = binary.LittleEndian.AppendUint64(b, r.Trace.SpanID)
	b, err := protocol.AppendMessage(b, r.Req)
	if err != nil {
		return b[:start], err
	}
	return sealFrame(b, start)
}

// decodeRequest decodes a request frame payload (the bytes after the
// length prefix).
func decodeRequest(p []byte) (rpcRequest, error) {
	if len(p) < requestEnvelope {
		return rpcRequest{}, fmt.Errorf("%w: request of %d bytes, shorter than its envelope", errBadFrame, len(p))
	}
	r := rpcRequest{
		From: protocol.SiteID(int32(binary.LittleEndian.Uint32(p))),
		Trace: protocol.SpanContext{
			TraceID: binary.LittleEndian.Uint64(p[4:]),
			SpanID:  binary.LittleEndian.Uint64(p[12:]),
		},
	}
	req, err := protocol.DecodeRequest(p[requestEnvelope:])
	if err != nil {
		return rpcRequest{}, fmt.Errorf("%w: %w", errBadFrame, err)
	}
	r.Req = req
	return r, nil
}

// appendFrame appends r as a complete frame, length prefix included.
func (r rpcResponse) appendFrame(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, r.ErrCode)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.ErrText)))
	b = append(b, r.ErrText...)
	if r.Resp != nil {
		var err error
		if b, err = protocol.AppendMessage(b, r.Resp); err != nil {
			return b[:start], err
		}
	}
	return sealFrame(b, start)
}

// decodeResponse decodes a response frame payload (the bytes after the
// length prefix).
func decodeResponse(p []byte) (rpcResponse, error) {
	if len(p) < responseHeader {
		return rpcResponse{}, fmt.Errorf("%w: response of %d bytes, shorter than its header", errBadFrame, len(p))
	}
	r := rpcResponse{ErrCode: p[0]}
	if r.ErrCode > errNotOperational {
		return rpcResponse{}, fmt.Errorf("%w: unknown error code %d", errBadFrame, r.ErrCode)
	}
	n := binary.LittleEndian.Uint32(p[1:])
	p = p[responseHeader:]
	if uint64(n) > uint64(len(p)) {
		return rpcResponse{}, fmt.Errorf("%w: error text of %d bytes, %d left", errBadFrame, n, len(p))
	}
	r.ErrText, p = string(p[:n]), p[n:]
	if len(p) > 0 {
		resp, err := protocol.DecodeResponse(p)
		if err != nil {
			return rpcResponse{}, fmt.Errorf("%w: %w", errBadFrame, err)
		}
		r.Resp = resp
	}
	return r, nil
}

// sealFrame fills in the length prefix of the frame starting at start.
func sealFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - frameHeader
	if n > maxFrame {
		return b[:start], fmt.Errorf("%w: %d-byte frame exceeds the %d-byte bound", errBadFrame, n, maxFrame)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// wireConn is one framed TCP stream with the buffers it reuses across
// exchanges. It carries one exchange at a time.
type wireConn struct {
	conn net.Conn
	r    *bufio.Reader
	hdr  [frameHeader]byte
	rbuf []byte
	wbuf []byte
}

func newWireConn(conn net.Conn) *wireConn {
	return &wireConn{conn: conn, r: bufio.NewReader(conn)}
}

func (w *wireConn) close() {
	w.conn.Close()
}

// readFrame reads one frame and returns its payload, which stays valid
// until the next read. The buffer grows with the bytes that actually
// arrive, not with what the prefix claims, so a peer that lies about a
// length pays in bytes before this side pays in memory.
func (w *wireConn) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(w.r, w.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(w.hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte bound", errBadFrame, n, maxFrame)
	}
	b := w.rbuf[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), minReadGrow)))
		}
		m, err := io.ReadFull(w.r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if err != nil {
			return nil, err
		}
	}
	w.rbuf = b
	return b, nil
}

// release drops buffers that one large exchange grew past maxKeptBuf.
func (w *wireConn) release() {
	if cap(w.rbuf) > maxKeptBuf {
		w.rbuf = nil
	}
	if cap(w.wbuf) > maxKeptBuf {
		w.wbuf = nil
	}
}
