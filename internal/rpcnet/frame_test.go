package rpcnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
)

// sampleMessages holds one populated value of every protocol message
// kind, requests first.
var sampleMessages = []interface{}{
	protocol.VoteRequest{Block: 1},
	protocol.FetchRequest{Block: 2},
	protocol.PutRequest{Block: 3, Data: []byte("put"), Version: 4, HasW: true, WasAvail: 5},
	protocol.PrepareWriteRequest{Block: 4, Data: []byte("pw"), Version: 2},
	protocol.AbortWriteRequest{Block: 4, Version: 2},
	protocol.StatusRequest{},
	protocol.RecoveryRequest{Vector: block.Vector{1, 2, 3}, JoinW: true, MaxBlocks: 8, Cont: 1},
	protocol.RepairSummaryRequest{},
	protocol.RepairFetchRequest{Wants: []protocol.BlockWant{{Index: 1, MinVersion: 2}}},
	protocol.TelemetryPullRequest{},
	protocol.VoteReply{Version: 3, Weight: 1000, State: protocol.StateAvailable},
	protocol.FetchReply{Data: []byte("data"), Version: 3},
	protocol.PutReply{},
	protocol.PrepareWriteReply{Version: 1, Weight: 1000, State: protocol.StateAvailable, Staged: true},
	protocol.AbortWriteReply{},
	protocol.StatusReply{State: protocol.StateComatose, WasAvail: 3, VersionSum: 9},
	protocol.RecoveryReply{Vector: block.Vector{4, 5}, Blocks: []protocol.BlockCopy{{Index: 1, Data: []byte("b"), Version: 5}}, More: true, Next: 2},
	protocol.RepairSummaryReply{Vector: block.Vector{7}, State: protocol.StateAvailable},
	protocol.RepairFetchReply{Blocks: []protocol.BlockCopy{{Index: 0, Data: []byte("rf"), Version: 1}}},
	protocol.TelemetryPullReply{Snap: []byte("{}")},
}

// heapBytes reports the bytes f allocates on the heap. The heap
// counters are process-wide, so f runs twice and the smaller figure
// counts: f allocates the same both times, while one-time runtime
// initialisation or another goroutine only ever adds.
func heapBytes(f func()) uint64 {
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	f()
	runtime.ReadMemStats(&m2)
	return min(m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc)
}

// FuzzDecodeFrame feeds arbitrary frame payloads to the request and
// response decoders. They must never panic; what they allocate must be
// bounded by the payload they were handed, never by a length field
// claiming more (decoded structs are wider than their wire form — a
// BlockCopy is 40 bytes for a 16-byte empty record — so the bound is a
// small multiple of the payload plus a constant for the boxed message
// and error text); and every payload that decodes must re-encode to
// exactly the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range sampleMessages {
		var frame []byte
		var err error
		if req, ok := m.(protocol.Request); ok {
			frame, err = rpcRequest{From: 2, Req: req, Trace: protocol.SpanContext{TraceID: 7, SpanID: 8}}.appendFrame(nil)
		} else {
			frame, err = rpcResponse{Resp: m.(protocol.Response)}.appendFrame(nil)
		}
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[frameHeader:])
	}
	errFrame, err := rpcResponse{ErrCode: errComatose, ErrText: "site comatose"}.appendFrame(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(errFrame[frameHeader:])

	f.Fuzz(func(t *testing.T, p []byte) {
		var (
			req     rpcRequest
			resp    rpcResponse
			reqErr  error
			respErr error
		)
		reqAlloc := heapBytes(func() { req, reqErr = decodeRequest(p) })
		respAlloc := heapBytes(func() { resp, respErr = decodeResponse(p) })
		if bound := 3*uint64(len(p)) + 4096; reqAlloc > bound || respAlloc > bound {
			t.Fatalf("decoding %d bytes allocated %d (request) / %d (response), bound %d", len(p), reqAlloc, respAlloc, bound)
		}
		if reqErr == nil {
			frame, err := req.appendFrame(nil)
			if err != nil {
				t.Fatalf("decoded request %+v does not re-encode: %v", req, err)
			}
			if !bytes.Equal(frame[frameHeader:], p) {
				t.Fatalf("request re-encodes differently:\n got %x\nwant %x", frame[frameHeader:], p)
			}
		}
		if respErr == nil {
			frame, err := resp.appendFrame(nil)
			if err != nil {
				t.Fatalf("decoded response %+v does not re-encode: %v", resp, err)
			}
			if !bytes.Equal(frame[frameHeader:], p) {
				t.Fatalf("response re-encodes differently:\n got %x\nwant %x", frame[frameHeader:], p)
			}
		}
	})
}

// TestFrameRoundTrip: every sample message and its envelope survive
// the frame.
func TestFrameRoundTrip(t *testing.T) {
	for _, m := range sampleMessages {
		if req, ok := m.(protocol.Request); ok {
			in := rpcRequest{From: 3, Req: req, Trace: protocol.SpanContext{TraceID: 1, SpanID: 2}}
			frame, err := in.appendFrame(nil)
			if err != nil {
				t.Fatal(err)
			}
			out, err := decodeRequest(frame[frameHeader:])
			if err != nil || out.From != in.From || out.Trace != in.Trace || out.Req.Kind() != req.Kind() {
				t.Fatalf("%T: got %+v, %v", m, out, err)
			}
			continue
		}
		in := rpcResponse{Resp: m.(protocol.Response), ErrCode: errGeneric, ErrText: "text"}
		frame, err := in.appendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeResponse(frame[frameHeader:])
		if err != nil || out.ErrCode != in.ErrCode || out.ErrText != in.ErrText || out.Resp.RespKind() != in.Resp.RespKind() {
			t.Fatalf("%T: got %+v, %v", m, out, err)
		}
	}
	// A nil response stays nil.
	frame, _ := rpcResponse{ErrCode: errComatose, ErrText: "x"}.appendFrame(nil)
	if out, err := decodeResponse(frame[frameHeader:]); err != nil || out.Resp != nil {
		t.Fatalf("error reply decoded as %+v, %v; want a nil Response", out, err)
	}
}

// expectClosed waits for the server to drop a raw connection.
func expectClosed(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [64]byte
	n, err := conn.Read(buf[:])
	if err == nil {
		t.Fatalf("%s: server answered %d bytes instead of closing", what, n)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("%s: server kept the connection open", what)
	}
}

// TestServerDropsHostileFrames: a peer that sends an oversize length
// prefix, or a frame of an unknown kind, loses its connection; the
// server keeps serving well-behaved clients.
func TestServerDropsHostileFrames(t *testing.T) {
	_, addrs := startCluster(t, 2)

	oversize, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer oversize.Close()
	var prefix [frameHeader]byte
	binary.LittleEndian.PutUint32(prefix[:], maxFrame+1)
	if _, err := oversize.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, oversize, "oversize length prefix")

	unknown, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer unknown.Close()
	frame, err := rpcRequest{From: 0, Req: protocol.StatusRequest{}}.appendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame[frameHeader+requestEnvelope+4] = 0xEE // kind tag
	if _, err := unknown.Write(frame); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, unknown, "unknown kind")

	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(context.Background(), 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("well-behaved client after hostile peers: %v", err)
	}
}

// TestMalformedReplyIsSevered: a server whose answer does not decode —
// an unknown kind, or a length prefix past the bound — leaves the
// client with a severed, transient transport error, promptly.
func TestMalformedReplyIsSevered(t *testing.T) {
	unknownKind, err := rpcResponse{Resp: protocol.PutReply{}}.appendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	unknownKind[frameHeader+responseHeader+4] = 0xEE
	oversize := binary.LittleEndian.AppendUint32(nil, maxFrame+1)

	for name, reply := range map[string][]byte{"unknown kind": unknownKind, "oversize prefix": oversize} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func(conn net.Conn) {
						defer conn.Close()
						w := newWireConn(conn)
						for {
							if _, err := w.readFrame(); err != nil {
								return
							}
							if _, err := conn.Write(reply); err != nil {
								return
							}
						}
					}(conn)
				}
			}()

			cli, err := NewClient(0, map[protocol.SiteID]string{1: ln.Addr().String()}, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			start := time.Now()
			_, err = cli.Call(context.Background(), 0, 1, protocol.PutRequest{Block: 1, Data: []byte("x"), Version: 1})
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("malformed reply took %v to surface", elapsed)
			}
			if !errors.Is(err, protocol.ErrSevered) || !errors.Is(err, protocol.ErrTransient) {
				t.Fatalf("malformed reply = %v, want a severed transient error", err)
			}
			if !scheme.IsTransportError(err) {
				t.Fatalf("malformed reply = %v, not a transport error", err)
			}
		})
	}
}

// TestGrownBuffersAreReleased: a connection that carried one large
// reply does not keep its grown buffers for the next exchange.
func TestGrownBuffersAreReleased(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	big, err := rpcResponse{Resp: protocol.FetchReply{Data: make([]byte, 4*maxKeptBuf)}}.appendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		b.Write(big)
		io.Copy(io.Discard, b)
	}()
	w := newWireConn(a)
	p, err := w.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(p)
	if err != nil || len(resp.Resp.(protocol.FetchReply).Data) != 4*maxKeptBuf {
		t.Fatalf("large reply: %v", err)
	}
	w.wbuf = make([]byte, 0, 2*maxKeptBuf)
	w.release()
	if w.rbuf != nil || w.wbuf != nil {
		t.Fatalf("kept buffers of %d and %d bytes past the %d-byte cap", cap(w.rbuf), cap(w.wbuf), maxKeptBuf)
	}
}
