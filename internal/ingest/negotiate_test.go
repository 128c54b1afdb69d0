package ingest

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/wire"
)

// rawOpen dials the server, sends one session-opening frame, and
// returns the first reply frame.
func rawOpen(t *testing.T, addr string, kind FrameKind, payload []byte) (FrameKind, []byte) {
	t.Helper()
	s, err := dial(addr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.send(kind, func(a *wire.Appender) { a.Raw(payload) }); err != nil {
		t.Fatal(err)
	}
	reply, body, err := readFrame(s.br)
	if err != nil {
		t.Fatalf("reading reply to %s: %v", kind, err)
	}
	return reply, body
}

// wantProtocolError checks that a reply is a non-retryable CodeProtocol
// ERROR frame.
func wantProtocolError(t *testing.T, what string, kind FrameKind, payload []byte) {
	t.Helper()
	if kind != FrameError {
		t.Fatalf("%s: got %s frame, want error", what, kind)
	}
	ep, err := decodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Code != CodeProtocol || ep.Retryable {
		t.Errorf("%s: rejected with %s retryable=%v, want non-retryable protocol error", what, ep.Code, ep.Retryable)
	}
}

// TestHelloVersionNegotiation pins the server half of the v3 floor:
// HELLO offers below v3 are refused with a typed, non-retryable protocol
// error, while v3 and any later offer are welcomed at v3. ATTACH follows
// the same floor.
func TestHelloVersionNegotiation(t *testing.T) {
	s := startServer(t, nil)

	for _, tc := range []struct {
		offer byte
		ok    bool
	}{
		{0, false},
		{1, false},
		{2, false},
		{3, true},
		{10, true}, // a later client is answered at v3, not rejected
	} {
		var a wire.Appender
		appendHello(&a, helloPayload{Version: tc.offer, Tenant: "sphere-n", SizeHint: 64})
		kind, payload := rawOpen(t, s.Addr(), FrameHello, a.Buf)
		what := fmt.Sprintf("hello v%d", tc.offer)
		if !tc.ok {
			wantProtocolError(t, what, kind, payload)
			continue
		}
		if kind != FrameWelcome {
			t.Fatalf("%s: got %s frame, want welcome", what, kind)
		}
		w, err := decodeWelcome(payload)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if w.Version != protoVersion {
			t.Errorf("%s: welcomed at v%d, want v%d", what, w.Version, protoVersion)
		}
	}

	var a wire.Appender
	appendAttach(&a, attachPayload{Version: 2, Role: roleSubmitter})
	kind, payload := rawOpen(t, s.Addr(), FrameAttach, a.Buf)
	wantProtocolError(t, "attach v2", kind, payload)
}

// TestClientNegotiatesV3Only pins the client half: only a v3 WELCOME is
// accepted; an older or newer answer is refused with ErrFrame.
func TestClientNegotiatesV3Only(t *testing.T) {
	for _, tc := range []struct {
		version byte
		ok      bool
	}{
		{1, false},
		{2, false},
		{3, true},
		{4, false},
	} {
		srv, cli := net.Pipe()
		c := &Client{session: newSession(cli, 0), chunk: uploadChunk}
		go func() {
			ss := newSession(srv, 0)
			kind, payload, err := ss.recv()
			if err != nil || kind != FrameHello {
				srv.Close()
				return
			}
			h, err := decodeHello(payload)
			if err != nil || h.Version != protoVersion {
				srv.Close()
				return
			}
			ss.send(FrameWelcome, func(a *wire.Appender) {
				appendWelcome(a, welcomePayload{Version: tc.version, Credit: 1024})
			})
		}()
		err := c.hello("sphere-n", 64)
		cli.Close()
		srv.Close()
		if tc.ok && err != nil {
			t.Errorf("welcome v%d: hello failed: %v", tc.version, err)
		}
		if !tc.ok && !errors.Is(err, ErrFrame) {
			t.Errorf("welcome v%d: got %v, want ErrFrame", tc.version, err)
		}
	}
}

// TestWriteFrameMarksUploadDead is the regression test for the shard
// lifecycle bug: a failed write on a server session marks the upload
// dead, and the shard relies on that to stop assembling (and never ack)
// a session whose socket is gone.
func TestWriteFrameMarksUploadDead(t *testing.T) {
	s := startServer(t, nil)
	srv, cli := net.Pipe()
	cli.Close() // the peer vanished: every write must fail
	up := &upload{session: newSession(srv, s.cfg.WriteTimeout)}
	if up.send(FrameGrant, func(a *wire.Appender) { a.Byte(1) }) == nil {
		t.Fatal("send reported success on a closed connection")
	}
	if !up.dead.Load() {
		t.Fatal("failed send did not mark the upload dead")
	}
	// A dead upload must stay inert through the shard's remaining work:
	// finishUpload on a dead session neither stores nor acks.
	before := s.ctrs.accepted.Load()
	up.buf = wire.GetAppender()
	defer wire.PutAppender(up.buf)
	if rej := s.finishUpload(up, [digestSize]byte{}); rej != nil {
		t.Fatalf("dead upload was rejected: %v", rej)
	}
	if got := s.ctrs.accepted.Load(); got != before {
		t.Fatalf("dead upload was acked (accepted %d -> %d)", before, got)
	}
}

// TestErrorFrameToServerRejected pins that no peer may send ERROR to
// the server: wherever one arrives, the session ends and counts it
// rejected, and an upload answers it with a protocol error.
func TestErrorFrameToServerRejected(t *testing.T) {
	s := startServer(t, nil)
	var hello, worker, submitter wire.Appender
	appendHello(&hello, helloPayload{Version: protoVersion, Tenant: "sphere-n", SizeHint: 64})
	appendAttach(&worker, attachPayload{Version: protoVersion, Role: roleWorker, Slots: 1})
	appendAttach(&submitter, attachPayload{Version: protoVersion, Role: roleSubmitter})
	for i, tc := range []struct {
		what    string
		kind    FrameKind // the opening frame, or 0 to open with the ERROR
		payload []byte
	}{
		{"opening", 0, nil},
		{"upload", FrameHello, hello.Buf},
		{"worker", FrameAttach, worker.Buf},
		{"submitter", FrameAttach, submitter.Buf},
	} {
		ss, err := dial(s.Addr(), tc.kind, func(a *wire.Appender) { a.Raw(tc.payload) })
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if err := ss.send(FrameError, func(a *wire.Appender) {
			appendError(a, ServerError{Code: CodeProtocol, Msg: "from a client"})
		}); err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		// Read until the server closes the session.
		var rej *ServerError
		for {
			if _, _, err = ss.recv(); err != nil {
				errors.As(err, &rej)
				break
			}
		}
		ss.Close()
		if tc.kind == FrameHello && (rej == nil || rej.Code != CodeProtocol) {
			t.Errorf("%s: ended with %v, want a protocol error", tc.what, err)
		}
		if n := s.Counters().Rejected; n != uint64(i+1) {
			t.Errorf("%s: %d sessions rejected, want %d", tc.what, n, i+1)
		}
	}
}
