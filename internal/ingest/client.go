package ingest

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/wire"
)

// Client is one recorder's connection to the ingest fleet. A client
// carries one upload session; it is not safe for concurrent use.
type Client struct {
	*session
	credit int
	chunk  int
}

// uploadChunk is the default DATA frame payload size.
const uploadChunk = 64 << 10

// Dial connects to an ingest server.
func Dial(addr string) (*Client, error) {
	s, err := dial(addr, 0, nil)
	if err != nil {
		return nil, err
	}
	return &Client{session: s, chunk: uploadChunk}, nil
}

// hello negotiates the session and the initial credit.
func (c *Client) hello(tenant string, sizeHint uint64) error {
	w, err := c.open(FrameHello, func(a *wire.Appender) {
		appendHello(a, helloPayload{Version: protoVersion, Tenant: tenant, SizeHint: sizeHint})
	})
	if err != nil {
		return err
	}
	if w.Credit == 0 {
		return fmt.Errorf("%w: zero initial credit", ErrFrame)
	}
	c.credit = int(w.Credit)
	if c.chunk > c.credit {
		c.chunk = c.credit
	}
	return nil
}

// sendData streams stream in credit-bounded DATA frames, absorbing
// GRANT frames as they come back. It never puts more than the granted
// allowance in flight — that is the client half of the backpressure
// loop: when a shard lags, grants lag, and the uploader stalls here
// instead of ballooning the server's queues.
func (c *Client) sendData(stream []byte) error {
	for off := 0; off < len(stream); {
		for c.credit <= 0 {
			kind, payload, err := c.recv()
			if err != nil {
				return err
			}
			if kind != FrameGrant {
				return fmt.Errorf("%w: %s while waiting for credit", ErrFrame, kind)
			}
			g, err := decodeGrant(payload)
			if err != nil {
				return err
			}
			c.credit += int(g.Bytes)
		}
		n := c.chunk
		if n > c.credit {
			n = c.credit
		}
		if n > len(stream)-off {
			n = len(stream) - off
		}
		if err := c.sendChunk(stream[off : off+n]); err != nil {
			return c.rejection(err)
		}
		// Credit is accounted in decoded bytes on both sides, so the flow-
		// control loop is oblivious to whether a chunk traveled compressed.
		c.credit -= n
		off += n
	}
	return nil
}

// sendChunk sends one run of stream bytes, compressed when compression
// actually wins: the chunk is block-compressed and sent as DATAZ iff the
// framed form (CRC + block) is smaller than the raw bytes — log streams
// are usually highly compressible, already-dense chunks fall back to
// plain DATA.
func (c *Client) sendChunk(chunk []byte) error {
	z := wire.GetAppender()
	defer wire.PutAppender(z)
	appendDataZ(z, chunk)
	kind, payload := FrameData, chunk
	if len(z.Buf) < len(chunk) {
		kind, payload = FrameDataZ, z.Buf
	}
	return c.send(kind, func(a *wire.Appender) { a.Raw(payload) })
}

// rejection returns the ERROR the server sent before closing the
// connection that the write error err failed on, or err when it sent
// none. A server that rejects an upload mid-stream sends ERROR and
// closes, and the client's next write then fails on the closed
// connection; the ERROR is still buffered, so a shed mid-upload stays a
// retryable *ServerError.
func (c *Client) rejection(err error) error {
	for {
		_, _, rerr := c.recv() // nil for a GRANT sent before the ERROR
		var se *ServerError
		if errors.As(rerr, &se) {
			return se
		}
		if rerr != nil {
			return err
		}
	}
}

// Upload sends one recorded stream under tenant and returns the
// store digest the server acked. The digest is computed client-side and
// checked by the server, so a corrupted upload is rejected, never
// stored.
func (c *Client) Upload(tenant string, stream []byte) (digest string, duplicate bool, err error) {
	if err := c.hello(tenant, uint64(len(stream))); err != nil {
		return "", false, err
	}
	if err := c.sendData(stream); err != nil {
		return "", false, err
	}
	sum := sha256.Sum256(stream)
	if err := c.send(FrameFinish, func(a *wire.Appender) { appendFinish(a, finishPayload{Digest: sum}) }); err != nil {
		return "", false, c.rejection(err)
	}
	// Late grants for the final DATA frames may precede the ACK.
	for {
		kind, payload, err := c.recv()
		if err != nil {
			return "", false, err
		}
		switch kind {
		case FrameGrant:
			continue
		case FrameAck:
			ack, err := decodeAck(payload)
			if err != nil {
				return "", false, err
			}
			if want := hexDigest(sum); ack.Digest != want {
				return "", false, fmt.Errorf("%w: server acked digest %s, sent %s", ErrFrame, ack.Digest, want)
			}
			return ack.Digest, ack.Duplicate, nil
		default:
			return "", false, fmt.Errorf("%w: %s instead of ack", ErrFrame, kind)
		}
	}
}

// UploadTorn opens a session, streams only stream[:cut], then severs
// the connection without FINISH — a recorder dying mid-upload. Used by
// the conformance tests and load generator to exercise the abort path.
func (c *Client) UploadTorn(tenant string, stream []byte, cut int) error {
	if cut > len(stream) {
		cut = len(stream)
	}
	if err := c.hello(tenant, uint64(len(stream))); err != nil {
		return err
	}
	if err := c.sendData(stream[:cut]); err != nil {
		return err
	}
	return c.Close()
}

// backoffCapFactor bounds the exponential retry backoff at
// base << backoffCapFactor — with the default base that keeps the
// worst-case sleep in seconds, not minutes, while still spreading a
// thundering herd across an order of magnitude.
const backoffCapFactor = 6

// retryDelay computes the sleep before retry attempt (1-based): capped
// exponential backoff with deterministic, seed-jittered spread. The
// uncapped exponent doubles from base; the jitter draws the actual
// delay uniformly from [exp/2, exp), seeded by (tenant, attempt) — the
// same uploader retries on the same schedule every run (reproducible
// tests), while distinct tenants shed from one overload burst retry at
// different times instead of re-stampeding in lockstep.
func retryDelay(tenant string, attempt int, base time.Duration) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	shift := attempt - 1
	if shift > backoffCapFactor {
		shift = backoffCapFactor
	}
	exp := base << shift
	h := fnv.New64a()
	io.WriteString(h, tenant)
	fmt.Fprintf(h, "/%d", attempt)
	frac := float64(h.Sum64()>>11) / float64(1<<53) // uniform [0, 1)
	return exp/2 + time.Duration(frac*float64(exp/2))
}

// Upload dials addr and uploads stream under tenant, retrying dial
// failures and shed (retryable) rejections up to attempts tries. The
// sleep between tries is capped exponential from backoff with
// deterministic per-tenant jitter — see retryDelay.
func Upload(addr, tenant string, stream []byte, attempts int, backoff time.Duration) (digest string, duplicate bool, retries int, err error) {
	if attempts < 1 {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			retries++
			time.Sleep(retryDelay(tenant, i, backoff))
		}
		var c *Client
		c, err = Dial(addr)
		if err != nil {
			continue // dial races with server start/stop; retry
		}
		digest, duplicate, err = c.Upload(tenant, stream)
		c.Close()
		if err == nil || !IsRetryable(err) {
			return digest, duplicate, retries, err
		}
	}
	return "", false, retries, err
}
