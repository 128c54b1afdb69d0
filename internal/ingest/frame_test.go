package ingest

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/allocpin"
	"repro/internal/wire"
)

// frameBytes renders one framed payload.
func frameBytes(kind FrameKind, build func(*wire.Appender)) []byte {
	var f wire.Appender
	appendFrame(&f, kind, build)
	return f.Buf
}

func TestFramePayloadRoundTrip(t *testing.T) {
	hello := helloPayload{Version: protoVersion, Tenant: "sphere-7", SizeHint: 1 << 20}
	welcome := welcomePayload{Version: protoVersion, Credit: 256 << 10}
	grant := grantPayload{Bytes: 65536}
	var fin finishPayload
	for i := range fin.Digest {
		fin.Digest[i] = byte(i)
	}
	ack := ackPayload{Digest: string(bytes.Repeat([]byte("ab"), digestSize)), Duplicate: true}
	srvErr := ServerError{Code: CodeOverloaded, Retryable: true, Msg: "shard queue full"}

	cases := []struct {
		kind  FrameKind
		build func(*wire.Appender)
		check func(t *testing.T, payload []byte)
	}{
		{FrameHello, func(a *wire.Appender) { appendHello(a, hello) }, func(t *testing.T, p []byte) {
			got, err := decodeHello(p)
			if err != nil || got != hello {
				t.Fatalf("hello round trip: %+v, %v", got, err)
			}
		}},
		{FrameWelcome, func(a *wire.Appender) { appendWelcome(a, welcome) }, func(t *testing.T, p []byte) {
			got, err := decodeWelcome(p)
			if err != nil || got != welcome {
				t.Fatalf("welcome round trip: %+v, %v", got, err)
			}
		}},
		{FrameGrant, func(a *wire.Appender) { appendGrant(a, grant) }, func(t *testing.T, p []byte) {
			got, err := decodeGrant(p)
			if err != nil || got != grant {
				t.Fatalf("grant round trip: %+v, %v", got, err)
			}
		}},
		{FrameFinish, func(a *wire.Appender) { appendFinish(a, fin) }, func(t *testing.T, p []byte) {
			got, err := decodeFinish(p)
			if err != nil || got != fin {
				t.Fatalf("finish round trip: %+v, %v", got, err)
			}
		}},
		{FrameAck, func(a *wire.Appender) { appendAck(a, ack) }, func(t *testing.T, p []byte) {
			got, err := decodeAck(p)
			if err != nil || got != ack {
				t.Fatalf("ack round trip: %+v, %v", got, err)
			}
		}},
		{FrameError, func(a *wire.Appender) { appendError(a, srvErr) }, func(t *testing.T, p []byte) {
			got, err := decodeError(p)
			if err != nil || got != srvErr {
				t.Fatalf("error round trip: %+v, %v", got, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			r := bytes.NewReader(frameBytes(tc.kind, tc.build))
			kind, payload, err := readFrame(r)
			if err != nil || kind != tc.kind || r.Len() != 0 {
				t.Fatalf("readFrame: kind %v rest %d err %v", kind, r.Len(), err)
			}
			tc.check(t, payload)
		})
	}
}

func TestDecodeFrameFaults(t *testing.T) {
	valid := frameBytes(FrameGrant, func(a *wire.Appender) { appendGrant(a, grantPayload{Bytes: 9}) })
	read := func(data []byte) error {
		_, _, err := readFrame(bytes.NewReader(data))
		return err
	}

	// An empty stream is a clean close.
	if err := read(nil); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want EOF", err)
	}
	// Torn at every later prefix: always io.ErrUnexpectedEOF, never a panic.
	for cut := 1; cut < len(valid); cut++ {
		if err := read(valid[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: %v, want unexpected EOF", cut, err)
		}
	}
	// Oversize plen is corruption, not an allocation request.
	huge := append([]byte{0xff, 0xff, 0xff, 0xff}, valid[4:]...)
	if err := read(huge); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversize plen: %v, want ErrFrame", err)
	}
	// Unknown frame kind.
	bad := append([]byte(nil), valid...)
	bad[4] = 0x7f
	if err := read(bad); !errors.Is(err, ErrFrame) {
		t.Fatalf("bad kind: %v, want ErrFrame", err)
	}
}

// TestReadFrameGrowsAsBytesArrive holds readFrame's buffer to the bytes
// a peer has sent: a lone header that declares the largest payload
// costs one read step, not the megabyte it declares, and a payload
// spanning several steps still arrives whole.
func TestReadFrameGrowsAsBytesArrive(t *testing.T) {
	hdr := []byte{0, 0, 0x10, 0, byte(FrameData)} // plen = maxFramePayload
	// One step rounded up to whole 8 KiB heap pages, plus the reader.
	limit := uint64(frameReadStep+8<<10-1)&^(8<<10-1) + 1<<10
	allocpin.Check(t, 3, limit, func() {
		if _, _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("header-only frame: %v, want unexpected EOF", err)
		}
	})

	big := bytes.Repeat([]byte{0xa5}, 3*frameReadStep+7)
	kind, payload, err := readFrame(bytes.NewReader(frameBytes(FrameResult, func(a *wire.Appender) { a.Raw(big) })))
	if err != nil || kind != FrameResult || !bytes.Equal(payload, big) {
		t.Fatalf("multi-step payload: kind %v, %d of %d bytes, err %v", kind, len(payload), len(big), err)
	}
}

func TestDecodePayloadFaults(t *testing.T) {
	if _, err := decodeHello(nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("empty hello: %v", err)
	}
	// Empty tenant is rejected — the tenant keys sharding and verdicts.
	var a wire.Appender
	appendHello(&a, helloPayload{Version: protoVersion, Tenant: "", SizeHint: 0})
	if _, err := decodeHello(a.Buf); !errors.Is(err, ErrFrame) {
		t.Fatalf("empty tenant: %v", err)
	}
	if _, err := decodeFinish(make([]byte, digestSize-1)); !errors.Is(err, ErrFrame) {
		t.Fatalf("short finish digest: %v", err)
	}
	// Trailing garbage after a well-formed payload is rejected.
	var g wire.Appender
	appendGrant(&g, grantPayload{Bytes: 1})
	g.Byte(0xcc)
	if _, err := decodeGrant(g.Buf); !errors.Is(err, ErrFrame) {
		t.Fatalf("grant trailer: %v", err)
	}
}

// FuzzIngestFrame throws arbitrary bytes at the frame layer the ingest
// server reads off the network: readFrame first, then every per-kind
// payload decoder for frames that parse. Invariants: no panic, no
// allocation driven by a hostile length field, and any frame that
// decodes re-encodes byte-identically through appendFrame.
func FuzzIngestFrame(f *testing.F) {
	f.Add(frameBytes(FrameHello, func(a *wire.Appender) {
		appendHello(a, helloPayload{Version: protoVersion, Tenant: "sphere-0", SizeHint: 4096})
	}))
	f.Add(frameBytes(FrameWelcome, func(a *wire.Appender) {
		appendWelcome(a, welcomePayload{Version: protoVersion, Credit: 1 << 18})
	}))
	f.Add(frameBytes(FrameData, func(a *wire.Appender) { a.Raw([]byte("QRSGstream-bytes")) }))
	f.Add(frameBytes(FrameGrant, func(a *wire.Appender) { appendGrant(a, grantPayload{Bytes: 65536}) }))
	f.Add(frameBytes(FrameFinish, func(a *wire.Appender) { a.Raw(make([]byte, digestSize)) }))
	f.Add(frameBytes(FrameAck, func(a *wire.Appender) {
		appendAck(a, ackPayload{Digest: string(bytes.Repeat([]byte("0"), 2*digestSize))})
	}))
	f.Add(frameBytes(FrameError, func(a *wire.Appender) {
		appendError(a, ServerError{Code: CodeOverloaded, Retryable: true, Msg: "shed"})
	}))
	// Hostile shapes: oversize plen, torn header, torn payload, bad kind.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1})
	f.Add([]byte{4, 0, 0})
	f.Add([]byte{4, 0, 0, 0, 2, 0xaa})
	f.Add([]byte{0, 0, 0, 0, 99})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		kind, payload, err := readFrame(r)
		if err != nil {
			cleanClose := len(data) == 0 && errors.Is(err, io.EOF)
			if !cleanClose && !errors.Is(err, ErrFrame) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected read error class: %v", err)
			}
			return
		}
		if len(payload) > maxFramePayload {
			t.Fatalf("decoded payload of %d bytes exceeds the frame cap", len(payload))
		}
		var re wire.Appender
		appendFrame(&re, kind, func(a *wire.Appender) { a.Raw(payload) })
		if !bytes.Equal(re.Buf, data[:len(data)-r.Len()]) {
			t.Fatal("frame did not re-encode byte-identically")
		}

		// Any payload that decodes must survive an encode→decode round
		// trip with its values intact.
		switch kind {
		case FrameHello:
			if h, err := decodeHello(payload); err == nil {
				var a wire.Appender
				appendHello(&a, h)
				if got, err := decodeHello(a.Buf); err != nil || got != h {
					t.Fatalf("hello value round trip: %+v, %v", got, err)
				}
			}
		case FrameWelcome:
			if w, err := decodeWelcome(payload); err == nil {
				var a wire.Appender
				appendWelcome(&a, w)
				if got, err := decodeWelcome(a.Buf); err != nil || got != w {
					t.Fatalf("welcome value round trip: %+v, %v", got, err)
				}
			}
		case FrameGrant:
			if g, err := decodeGrant(payload); err == nil {
				var a wire.Appender
				appendGrant(&a, g)
				if got, err := decodeGrant(a.Buf); err != nil || got != g {
					t.Fatalf("grant value round trip: %+v, %v", got, err)
				}
			}
		case FrameFinish:
			if fin, err := decodeFinish(payload); err == nil {
				var a wire.Appender
				appendFinish(&a, fin)
				if got, err := decodeFinish(a.Buf); err != nil || got != fin {
					t.Fatalf("finish value round trip: %v", err)
				}
			}
		case FrameAck:
			if k, err := decodeAck(payload); err == nil {
				var a wire.Appender
				appendAck(&a, k)
				if got, err := decodeAck(a.Buf); err != nil || got != k {
					t.Fatalf("ack value round trip: %+v, %v", got, err)
				}
			}
		case FrameError:
			if e, err := decodeError(payload); err == nil {
				var a wire.Appender
				appendError(&a, e)
				if got, err := decodeError(a.Buf); err != nil || got != e {
					t.Fatalf("error value round trip: %+v, %v", got, err)
				}
			}
		}
	})
}
