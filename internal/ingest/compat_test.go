package ingest

import (
	"bufio"
	"bytes"
	"hash/crc32"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestRetryDelayBoundedAndDeterministic pins the upload backoff policy:
// the delay grows exponentially but is capped at base<<backoffCapFactor,
// jitter keeps every delay inside [exp/2, exp), the schedule is a pure
// function of (tenant, attempt), and distinct tenants land on distinct
// points of the window so a shed burst does not re-converge.
func TestRetryDelayBoundedAndDeterministic(t *testing.T) {
	const base = 10 * time.Millisecond
	for attempt := 1; attempt <= 20; attempt++ {
		shift := attempt - 1
		if shift > backoffCapFactor {
			shift = backoffCapFactor
		}
		exp := base << shift
		d := retryDelay("sphere-a", attempt, base)
		if d < exp/2 || d >= exp {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d, exp/2, exp)
		}
		if d2 := retryDelay("sphere-a", attempt, base); d2 != d {
			t.Errorf("attempt %d: delay not deterministic (%v then %v)", attempt, d, d2)
		}
		if ceil := base << backoffCapFactor; d >= ceil {
			t.Errorf("attempt %d: delay %v at or above the cap %v", attempt, d, ceil)
		}
	}

	// Thirty-two tenants retrying the same attempt must not synchronize:
	// the jitter seed includes the tenant, so the delays spread out.
	distinct := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		distinct[retryDelay(string(rune('a'+i)), 4, base)] = true
	}
	if len(distinct) < 16 {
		t.Errorf("32 tenants share only %d distinct delays — retries would synchronize", len(distinct))
	}
}

// TestMixedVersionCompression covers the compressed data plane between a
// v3 client and a v3 server, the only pairing left since v3 is the floor:
// a compressible upload travels as DATAZ frames and the store keeps (and
// acks) exactly the uploaded raw bytes. Older peers are refused, which
// TestHelloVersionNegotiation and TestClientNegotiatesV3Only pin.
func TestMixedVersionCompression(t *testing.T) {
	// A synthetic, highly compressible payload: compression is
	// compress-iff-smaller per frame, so repetition guarantees the client
	// actually takes it.
	stream := bytes.Repeat([]byte("quickrec chunk log bytes "), 1<<12)

	t.Run("v3-client-v3-server", func(t *testing.T) {
		s := startServer(t, nil)
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		digest, dup, err := c.Upload("sphere-mix", stream)
		if err != nil || dup {
			t.Fatalf("upload: %s dup=%v err=%v", digest, dup, err)
		}
		stored, err := s.Store().Get(digest)
		if err != nil || !bytes.Equal(stored, stream) {
			t.Fatalf("stored bytes differ from upload: %v", err)
		}
		if n := s.Counters().FramesCompressed; n == 0 {
			t.Error("v3/v3 upload of compressible data compressed no frames")
		}
	})
}

// TestDataZBombRejected is the regression test for the DATAZ
// decompression bomb: a frame of a few bytes whose LZ tokens expand to
// 1 GiB (one literal, then an overlapping match of 2^30-1 bytes at
// distance 1) must be refused before expansion with a non-retryable
// protocol error, without a byte reaching a shard.
func TestDataZBombRejected(t *testing.T) {
	s := startServer(t, nil)
	var tokens wire.Appender
	tokens.Uvarint(1)
	tokens.Byte('A')
	tokens.Uvarint(1<<30 - 1)
	tokens.Uvarint(1)
	var blk wire.Appender
	blk.Byte(wire.BlockLZ)
	blk.Uvarint(1 << 30)
	blk.Blob(tokens.Buf)
	var dataz wire.Appender
	dataz.U32(crc32.Checksum(blk.Buf, castagnoli))
	dataz.Raw(blk.Buf)

	conn, err := net.DialTimeout("tcp", s.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frames wire.Appender
	appendFrame(&frames, FrameHello, func(a *wire.Appender) {
		appendHello(a, helloPayload{Version: protoVersion, Tenant: "sphere-bomb", SizeHint: 64})
	})
	appendFrame(&frames, FrameDataZ, func(a *wire.Appender) { a.Raw(dataz.Buf) })
	before := s.Counters().BytesIngested
	if _, err := conn.Write(frames.Buf); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if kind, _, err := readFrame(br); err != nil || kind != FrameWelcome {
		t.Fatalf("opening reply: %s, %v", kind, err)
	}
	kind, payload, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	wantProtocolError(t, "dataz bomb", kind, payload)
	if ep, _ := decodeError(payload); !strings.Contains(ep.Msg, "declares") {
		t.Errorf("dataz bomb refused for another reason: %q", ep.Msg)
	}
	if got := s.Counters().BytesIngested; got != before {
		t.Errorf("bytes ingested moved %d -> %d", before, got)
	}
}
