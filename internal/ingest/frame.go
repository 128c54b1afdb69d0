// Package ingest is the recording-as-a-service fleet endpoint: a TCP
// server that accepts segmented log streams from many concurrent
// recorders, shards them by replay-sphere (tenant) ID onto per-shard
// appenders, applies credit-based backpressure, and lands every upload
// as a crash-consistent, content-addressed bundle that a background
// verifier pool then salvages and prefix-replays.
//
// Wire protocol (little-endian), one length-prefixed frame at a time:
//
//	frame := plen u32 | kind u8 | payload[plen]
//
// A session is: client HELLO, server WELCOME (granting the initial
// credit), then DATA frames carrying raw segmented-stream bytes — the
// client may keep at most its granted credit in flight; the server
// returns credit with GRANT frames as the owning shard consumes each
// DATA frame — and a FINISH frame carrying the stream's SHA-256. The
// server answers ACK (bundle digest, stored or duplicate) or ERROR
// (typed code plus a retryable bit: an overloaded shard sheds the
// upload and tells the recorder to come back later).
//
// The payload codecs ride the shared internal/wire layer, and the
// per-shard appenders assemble uploads in pooled wire buffers — the
// same flush path the recorder's own segment writer uses.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// FrameKind tags a frame's payload type.
type FrameKind uint8

// Frame kinds. Client-to-server kinds first, then server-to-client.
const (
	// FrameHello opens a session: protocol version, tenant ID, size hint.
	FrameHello FrameKind = 1
	// FrameData carries a run of raw segmented-stream bytes.
	FrameData FrameKind = 2
	// FrameFinish ends an upload with the SHA-256 of all its bytes.
	FrameFinish FrameKind = 3
	// FrameWelcome acknowledges HELLO and grants the initial credit.
	FrameWelcome FrameKind = 4
	// FrameGrant returns consumed credit (bytes) to the client.
	FrameGrant FrameKind = 5
	// FrameAck confirms a stored (or deduplicated) bundle.
	FrameAck FrameKind = 6
	// FrameError rejects the session with a typed, possibly retryable code.
	FrameError FrameKind = 7

	// Compressed data plane and the fleet job plane.

	// FrameDataZ carries a block-compressed run of segmented-stream bytes
	// with a CRC over the on-wire block. Its decoded length counts
	// against credit like a DATA frame's, so a block declaring more than
	// the session's credit is refused before it is expanded.
	FrameDataZ FrameKind = 8
	// FrameAttach opens a fleet session (worker or submitter) instead of
	// an upload. Answered by WELCOME.
	FrameAttach FrameKind = 9
	// FrameJob carries one job envelope: submitter to server, server to
	// worker.
	FrameJob FrameKind = 10
	// FrameResult carries one job's result (possibly chunked): worker to
	// server, server to submitter.
	FrameResult FrameKind = 11
	// FrameFetch opens a blob-fetch session: a worker asks for a stored
	// bundle by digest and the server streams DATA frames plus a FINISH.
	FrameFetch FrameKind = 12

	// frameKindMax is the highest kind this build understands.
	frameKindMax = FrameFetch
)

// String names the kind.
func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "hello"
	case FrameData:
		return "data"
	case FrameFinish:
		return "finish"
	case FrameWelcome:
		return "welcome"
	case FrameGrant:
		return "grant"
	case FrameAck:
		return "ack"
	case FrameError:
		return "error"
	case FrameDataZ:
		return "dataz"
	case FrameAttach:
		return "attach"
	case FrameJob:
		return "job"
	case FrameResult:
		return "result"
	case FrameFetch:
		return "fetch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

const (
	// protoVersion is the one ingest protocol version this package
	// speaks: v3, with the compressed data plane (DATAZ) and the fleet
	// job plane (ATTACH/JOB/RESULT/FETCH). HELLO and ATTACH still carry
	// the client's version byte so a later version can be negotiated:
	// the server answers a higher offer at v3 and refuses a lower one
	// with a non-retryable CodeProtocol error, and clients accept only a
	// v3 WELCOME.
	protoVersion = 3
	// frameHeaderSize is plen u32 + kind u8.
	frameHeaderSize = 4 + 1
	// maxFramePayload bounds one frame; longer plen fields are treated as
	// protocol corruption rather than allocated.
	maxFramePayload = 1 << 20
	// frameReadStep is how far readFrame's buffer may run ahead of the
	// payload bytes that have arrived. It covers the largest frame an
	// honest upload sends, uploadChunk stream bytes as DATA or as DATAZ
	// with its CRC and block header, so such a frame is one allocation.
	frameReadStep = uploadChunk + 4 + 1 + 2*binary.MaxVarintLen32
	// digestSize is the SHA-256 length carried by FINISH frames.
	digestSize = 32
	// maxTenantLen bounds tenant IDs (a replay-sphere name, not a blob).
	maxTenantLen = 256
)

// Frame protocol errors. ErrFrame marks structurally invalid frames;
// readers surface it (wrapped with detail) and close the session.
var ErrFrame = fmt.Errorf("ingest: invalid frame")

// appendFrame frames the payload build appends under kind into a.
func appendFrame(a *wire.Appender, kind FrameKind, build func(*wire.Appender)) {
	at := len(a.Buf)
	a.U32(0)
	a.Byte(byte(kind))
	build(a)
	binary.LittleEndian.PutUint32(a.Buf[at:], uint32(len(a.Buf)-at-frameHeaderSize))
}

// readFrame reads one frame from r. The payload is freshly allocated —
// frame readers hand payloads across goroutines (connection handler to
// shard worker), so they must not share a scratch buffer. The buffer
// grows by frameReadStep as payload bytes arrive, so a header that
// declares a large payload costs at most one step until its bytes come.
func readFrame(r io.Reader) (FrameKind, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	plen := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	if plen > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: %d-byte payload exceeds %d", ErrFrame, plen, maxFramePayload)
	}
	kind := FrameKind(hdr[4])
	if kind < FrameHello || kind > frameKindMax {
		return 0, nil, fmt.Errorf("%w: unknown kind %d", ErrFrame, hdr[4])
	}
	size := int(plen)
	payload := make([]byte, min(size, frameReadStep))
	for n := 0; ; {
		m, err := io.ReadFull(r, payload[n:])
		n += m
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		if n == size {
			return kind, payload, nil
		}
		grown := make([]byte, min(size, n+frameReadStep))
		copy(grown, payload)
		payload = grown
	}
}

// helloPayload opens a session.
type helloPayload struct {
	Version  byte
	Tenant   string
	SizeHint uint64 // declared upload size in bytes; 0 when unknown
}

func appendHello(a *wire.Appender, h helloPayload) {
	a.Byte(h.Version)
	a.String(h.Tenant)
	a.Uvarint(h.SizeHint)
}

func decodeHello(data []byte) (helloPayload, error) {
	var h helloPayload
	c := wire.CursorOf(data)
	b, err := c.Byte()
	if err != nil {
		return h, fmt.Errorf("%w: hello: %v", ErrFrame, err)
	}
	h.Version = b
	tenant, err := c.View()
	if err != nil {
		return h, fmt.Errorf("%w: hello tenant: %v", ErrFrame, err)
	}
	if len(tenant) == 0 || len(tenant) > maxTenantLen {
		return h, fmt.Errorf("%w: tenant length %d", ErrFrame, len(tenant))
	}
	h.Tenant = string(tenant)
	if h.SizeHint, err = c.Uvarint(); err != nil {
		return h, fmt.Errorf("%w: hello size hint: %v", ErrFrame, err)
	}
	if err := c.Done(); err != nil {
		return h, fmt.Errorf("%w: hello trailer: %v", ErrFrame, err)
	}
	return h, nil
}

// welcomePayload acknowledges HELLO.
type welcomePayload struct {
	Version byte
	Credit  uint64 // initial in-flight byte allowance
}

func appendWelcome(a *wire.Appender, w welcomePayload) {
	a.Byte(w.Version)
	a.Uvarint(w.Credit)
}

// checkVersion refuses a HELLO or ATTACH offer below protoVersion.
func checkVersion(offer byte) error {
	if offer < protoVersion {
		return fmt.Errorf("%w: protocol v%d is below the v%d floor", ErrFrame, offer, protoVersion)
	}
	return nil
}

func decodeWelcome(data []byte) (welcomePayload, error) {
	var w welcomePayload
	c := wire.CursorOf(data)
	b, err := c.Byte()
	if err != nil {
		return w, fmt.Errorf("%w: welcome: %v", ErrFrame, err)
	}
	w.Version = b
	if w.Credit, err = c.Uvarint(); err != nil {
		return w, fmt.Errorf("%w: welcome credit: %v", ErrFrame, err)
	}
	if err := c.Done(); err != nil {
		return w, fmt.Errorf("%w: welcome trailer: %v", ErrFrame, err)
	}
	return w, nil
}

// grantPayload returns consumed credit.
type grantPayload struct {
	Bytes uint64
}

func appendGrant(a *wire.Appender, g grantPayload) { a.Uvarint(g.Bytes) }

func decodeGrant(data []byte) (grantPayload, error) {
	var g grantPayload
	c := wire.CursorOf(data)
	var err error
	if g.Bytes, err = c.Uvarint(); err != nil {
		return g, fmt.Errorf("%w: grant: %v", ErrFrame, err)
	}
	if err := c.Done(); err != nil {
		return g, fmt.Errorf("%w: grant trailer: %v", ErrFrame, err)
	}
	return g, nil
}

// finishPayload ends an upload.
type finishPayload struct {
	Digest [digestSize]byte
}

func appendFinish(a *wire.Appender, f finishPayload) { a.Raw(f.Digest[:]) }

func decodeFinish(data []byte) (finishPayload, error) {
	var f finishPayload
	if len(data) != digestSize {
		return f, fmt.Errorf("%w: finish digest is %d bytes, want %d", ErrFrame, len(data), digestSize)
	}
	copy(f.Digest[:], data)
	return f, nil
}

// ackPayload confirms a stored upload.
type ackPayload struct {
	Digest    string // lowercase hex SHA-256 — the bundle's storage name
	Duplicate bool   // true when the bundle was already in the store
}

func appendAck(a *wire.Appender, k ackPayload) {
	a.String(k.Digest)
	a.Bool(k.Duplicate)
}

func decodeAck(data []byte) (ackPayload, error) {
	var k ackPayload
	c := wire.CursorOf(data)
	d, err := c.View()
	if err != nil {
		return k, fmt.Errorf("%w: ack digest: %v", ErrFrame, err)
	}
	if len(d) != 2*digestSize {
		return k, fmt.Errorf("%w: ack digest is %d chars, want %d", ErrFrame, len(d), 2*digestSize)
	}
	k.Digest = string(d)
	b, err := c.Byte()
	if err != nil {
		return k, fmt.Errorf("%w: ack flags: %v", ErrFrame, err)
	}
	if b > 1 {
		return k, fmt.Errorf("%w: ack flags %#x", ErrFrame, b)
	}
	k.Duplicate = b != 0
	if err := c.Done(); err != nil {
		return k, fmt.Errorf("%w: ack trailer: %v", ErrFrame, err)
	}
	return k, nil
}

// ErrorCode classifies server-side rejections.
type ErrorCode uint8

// Error codes carried by FrameError.
const (
	// CodeOverloaded sheds a session because the owning shard's queue
	// stayed full past the shed timeout. Always retryable.
	CodeOverloaded ErrorCode = 1
	// CodeProtocol reports a malformed or out-of-order frame.
	CodeProtocol ErrorCode = 2
	// CodeDigestMismatch reports a FINISH digest that does not match the
	// received bytes (the upload was corrupted in flight).
	CodeDigestMismatch ErrorCode = 3
	// CodeTooLarge rejects an upload exceeding the server's size cap.
	CodeTooLarge ErrorCode = 4
	// CodeShuttingDown sheds a session because the server is draining.
	CodeShuttingDown ErrorCode = 5
	// CodeNotFound reports a FETCH for a digest the store does not hold.
	CodeNotFound ErrorCode = 6
)

// String names the code.
func (c ErrorCode) String() string {
	switch c {
	case CodeOverloaded:
		return "overloaded"
	case CodeProtocol:
		return "protocol"
	case CodeDigestMismatch:
		return "digest-mismatch"
	case CodeTooLarge:
		return "too-large"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeNotFound:
		return "not-found"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// ServerError is a typed server-side rejection: the payload of an ERROR
// frame, which a session's receive returns as this error.
type ServerError struct {
	Code      ErrorCode
	Retryable bool
	Msg       string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("ingest: server rejected upload (%s): %s", e.Code, e.Msg)
}

// IsRetryable reports whether err is a shed/transient server rejection
// worth retrying (an overloaded shard, a draining server).
func IsRetryable(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Retryable
}

func appendError(a *wire.Appender, e ServerError) {
	a.Byte(byte(e.Code))
	a.Bool(e.Retryable)
	a.String(e.Msg)
}

func decodeError(data []byte) (ServerError, error) {
	var e ServerError
	c := wire.CursorOf(data)
	b, err := c.Byte()
	if err != nil {
		return e, fmt.Errorf("%w: error code: %v", ErrFrame, err)
	}
	e.Code = ErrorCode(b)
	r, err := c.Byte()
	if err != nil {
		return e, fmt.Errorf("%w: error flags: %v", ErrFrame, err)
	}
	if r > 1 {
		return e, fmt.Errorf("%w: error flags %#x", ErrFrame, r)
	}
	e.Retryable = r != 0
	msg, err := c.View()
	if err != nil {
		return e, fmt.Errorf("%w: error message: %v", ErrFrame, err)
	}
	e.Msg = string(msg)
	if err := c.Done(); err != nil {
		return e, fmt.Errorf("%w: error trailer: %v", ErrFrame, err)
	}
	return e, nil
}
