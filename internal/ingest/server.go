package ingest

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Config parameterizes a Server. The zero value is unusable; call
// DefaultConfig and override.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// loopback port).
	Addr string
	// StoreDir roots the content-addressed bundle store.
	StoreDir string
	// UploadSlots bounds the uploads open at once. A session holds a
	// slot from its HELLO until it ends, so the upload bytes the server
	// holds are at most UploadSlots × MaxUploadBytes. A HELLO that finds
	// no free slot within ShedTimeout is shed with a retryable error.
	UploadSlots int
	// ShedTimeout is how long a HELLO waits for a free upload slot
	// before its session is shed.
	ShedTimeout time.Duration
	// Credit is the per-session in-flight byte allowance granted at
	// WELCOME; the session returns credit as it appends each DATA frame.
	Credit int
	// MaxUploadBytes caps one upload's assembled size, and one fleet
	// job result's.
	MaxUploadBytes int
	// Verifiers is the background verifier pool size.
	Verifiers int
	// ReplayWorkers is passed to core.ReplayWorkers for each verification
	// replay (0: serial; negative: GOMAXPROCS).
	ReplayWorkers int
	// WriteTimeout bounds every server-side frame write, so a reader that
	// stopped draining its socket cannot wedge the goroutine writing to it.
	WriteTimeout time.Duration
	// JobTimeout is how long a dispatched fleet job may stay in flight on
	// one worker before the broker re-dispatches it to another (straggler
	// or dead-worker recovery). 0 selects a 30s default.
	JobTimeout time.Duration
}

// DefaultConfig returns the production-shaped defaults on a loopback
// ephemeral port.
func DefaultConfig() Config {
	return Config{
		Addr:           "127.0.0.1:0",
		UploadSlots:    256,
		ShedTimeout:    time.Second,
		Credit:         256 << 10,
		MaxUploadBytes: 64 << 20,
		Verifiers:      2,
		ReplayWorkers:  0,
		WriteTimeout:   10 * time.Second,
	}
}

// Server is the recording-as-a-service ingest endpoint.
type Server struct {
	cfg      Config
	ln       net.Listener
	store    *Store
	slots    chan struct{} // one token per open upload
	verifier *verifierPool
	verdicts *verdictBoard
	broker   *broker
	ctrs     counters

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	handlers sync.WaitGroup
}

// NewServer opens the store, starts the verifier pool, and begins
// listening. Serve must be called to accept sessions.
func NewServer(cfg Config) (*Server, error) {
	if cfg.UploadSlots < 1 || cfg.Credit < 1 || cfg.MaxUploadBytes < 1 || cfg.WriteTimeout <= 0 {
		return nil, fmt.Errorf("ingest: config: upload slots, credit, size cap and write timeout must be positive")
	}
	store, err := OpenStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("ingest: listen: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		store:    store,
		slots:    make(chan struct{}, cfg.UploadSlots),
		verdicts: newVerdictBoard(),
		conns:    make(map[net.Conn]struct{}),
	}
	s.verifier = newVerifierPool(cfg.Verifiers, s.verdicts, func(j verifyJob) Verdict {
		return verifyBundle(store, j, cfg.ReplayWorkers)
	})
	s.broker = newBroker(s, cfg.JobTimeout)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Store returns the server's bundle store.
func (s *Server) Store() *Store { return s.store }

// Serve accepts sessions until the listener closes. It always returns a
// non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.handlers.Add(1)
		go s.handle(conn)
	}
}

// WaitIdle blocks until every queued bundle has a published verdict.
// Sessions still uploading are not waited for — call it after the
// uploads whose verdicts are wanted have been acked.
func (s *Server) WaitIdle() { s.verifier.waitIdle() }

// Close stops accepting, tears down live sessions, drains the verifier
// pool, closes the store, and returns. Safe to call once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.handlers.Wait()
	s.broker.close()
	s.verifier.close()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// admit takes an upload slot, waiting up to the shed timeout for one
// to free. It reports whether it got one.
func (s *Server) admit() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(s.cfg.ShedTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// handle runs one session and closes its connection when it ends. The
// opening frame selects the session type: HELLO starts an upload, ATTACH
// joins the fleet job plane as a worker or submitter, FETCH streams a
// stored bundle back. A session that ends in a rejection sends it as its
// last frame.
func (s *Server) handle(conn net.Conn) {
	defer s.handlers.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	ss := newSession(conn, s.cfg.WriteTimeout)
	kind, payload, err := ss.recv()
	if err != nil {
		s.ctrs.rejected.Add(1)
		return // nothing was negotiated; no frame owed
	}
	var rej *ServerError
	switch kind {
	case FrameHello:
		rej = s.handleUpload(ss, payload)
	case FrameAttach:
		rej = s.broker.handleAttach(ss, payload)
	case FrameFetch:
		rej = s.handleFetch(ss, payload)
	default:
		s.ctrs.rejected.Add(1)
		return
	}
	if rej != nil {
		ss.send(FrameError, func(a *wire.Appender) { appendError(a, *rej) })
	}
}

// handleUpload runs an upload session from its HELLO to its ACK and
// returns the rejection that ends it, if any. The session's goroutine
// owns the upload throughout: it holds an upload slot, assembles the
// bytes in one pooled buffer, and stores them at FINISH.
func (s *Server) handleUpload(ss *session, payload []byte) *ServerError {
	// A future client offering a higher version is answered at v3 (the
	// WELCOME), not rejected.
	hello, err := decodeHello(payload)
	if err == nil {
		err = checkVersion(hello.Version)
	}
	if err != nil {
		s.ctrs.rejected.Add(1)
		return &ServerError{Code: CodeProtocol, Msg: err.Error()}
	}
	if hello.SizeHint > uint64(s.cfg.MaxUploadBytes) {
		s.ctrs.rejected.Add(1)
		return &ServerError{Code: CodeTooLarge,
			Msg: fmt.Sprintf("declared %d bytes, cap %d", hello.SizeHint, s.cfg.MaxUploadBytes)}
	}
	s.ctrs.sessions.Add(1)
	// Admission is the one overload valve: a shed session never
	// buffers a byte.
	if !s.admit() {
		s.ctrs.shed.Add(1)
		return &ServerError{Code: CodeOverloaded, Retryable: true, Msg: "no upload slot free"}
	}
	defer func() { <-s.slots }()
	buf := wire.GetAppender()
	defer wire.PutAppender(buf)
	want, ok, rej := s.receiveUpload(ss, buf, hello.SizeHint)
	if !ok {
		s.ctrs.aborted.Add(1)
		return rej
	}
	return s.finishUpload(ss, hello.Tenant, buf.Buf, want)
}

// receiveUpload welcomes an admitted session and appends its DATA and
// DATAZ frames to buf, granting each frame's bytes back once they are
// appended, until FINISH. It returns the digest FINISH declares, or
// !ok when the session ended first: torn, severed by a failed write, or
// refused with the rejection it returns. sizeHint is the HELLO's
// declared size (see reserve).
func (s *Server) receiveUpload(ss *session, buf *wire.Appender, sizeHint uint64) (want [digestSize]byte, ok bool, rej *ServerError) {
	if ss.send(FrameWelcome, func(a *wire.Appender) {
		appendWelcome(a, welcomePayload{Version: protoVersion, Credit: uint64(s.cfg.Credit)})
	}) != nil {
		return want, false, nil
	}
	var expanded []byte // DATAZ frames expand here, one after another
	for {
		kind, payload, err := ss.recv()
		if err != nil {
			return want, false, nil // torn upload
		}
		switch kind {
		case FrameData, FrameDataZ:
			if kind == FrameDataZ {
				// A conforming client never has more than its credit in
				// flight, so a block declaring more is refused unexpanded.
				expanded, err = decodeDataZ(expanded, payload, s.cfg.Credit)
				if err != nil {
					s.ctrs.rejected.Add(1)
					return want, false, &ServerError{Code: CodeProtocol, Msg: err.Error()}
				}
				payload = expanded
				s.ctrs.framesCompressed.Add(1)
			}
			if len(buf.Buf)+len(payload) > s.cfg.MaxUploadBytes {
				s.ctrs.rejected.Add(1)
				return want, false, &ServerError{Code: CodeTooLarge, Msg: fmt.Sprintf("upload exceeds %d bytes", s.cfg.MaxUploadBytes)}
			}
			reserve(buf, len(payload), sizeHint)
			buf.Raw(payload)
			s.ctrs.bytesIngested.Add(uint64(len(payload)))
			if ss.send(FrameGrant, func(a *wire.Appender) { appendGrant(a, grantPayload{Bytes: uint64(len(payload))}) }) != nil {
				return want, false, nil
			}
		case FrameFinish:
			fin, err := decodeFinish(payload)
			if err != nil {
				s.ctrs.rejected.Add(1)
				return want, false, &ServerError{Code: CodeProtocol, Msg: err.Error()}
			}
			return fin.Digest, true, nil
		default:
			s.ctrs.rejected.Add(1)
			return want, false, &ServerError{Code: CodeProtocol, Msg: "unexpected " + kind.String() + " frame"}
		}
	}
}

// reserve makes room in an upload's buffer for n more bytes. A frame
// that does not fit grows buf to at least twice its length, but no
// further than the HELLO's sizeHint while the bytes still fit in it.
// Nothing is reserved from the hint before bytes arrive, so buf holds
// under about twice what the session sent, and a HELLO alone claims no
// memory.
func reserve(buf *wire.Appender, n int, sizeHint uint64) {
	need := len(buf.Buf) + n
	if need <= cap(buf.Buf) {
		return
	}
	size := max(need, 2*len(buf.Buf))
	if uint64(need) <= sizeHint {
		size = min(size, int(sizeHint))
	}
	buf.Grow(size - len(buf.Buf))
}

// finishUpload checks the upload's digest against the one FINISH
// declared, stores the bundle, queues verification, and acks, or
// returns the rejection to send instead.
func (s *Server) finishUpload(ss *session, tenant string, data []byte, want [digestSize]byte) *ServerError {
	got := sha256.Sum256(data)
	if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
		s.ctrs.rejected.Add(1)
		return &ServerError{Code: CodeDigestMismatch,
			Msg: fmt.Sprintf("upload hashed to %x, client declared %x", got, want)}
	}
	digest, existed, err := s.store.Put(data, got)
	if err != nil {
		// Store faults (disk full, permissions) are retryable from the
		// client's point of view: nothing was made addressable.
		return &ServerError{Code: CodeOverloaded, Retryable: true, Msg: err.Error()}
	}
	if existed {
		s.ctrs.duplicates.Add(1)
	}
	// Fleet bundles are job inputs, not recordings to audit: the fleet
	// is about to replay them on purpose, so burning a verifier on each
	// would double every distributed run's work.
	if tenant != FleetTenant && s.verdicts.claim(tenant, digest) {
		s.verifier.enqueue(verifyJob{tenant: tenant, digest: digest})
	}
	// Count before writing: a client that has read its ACK must find the
	// upload in Counters. A write that fails takes the count back.
	s.ctrs.accepted.Add(1)
	if ss.send(FrameAck, func(a *wire.Appender) { appendAck(a, ackPayload{Digest: digest, Duplicate: existed}) }) != nil {
		s.ctrs.accepted.Add(^uint64(0))
	}
	return nil
}

// hexDigest is a tiny helper for tests and the CLI.
func hexDigest(sum [digestSize]byte) string { return hex.EncodeToString(sum[:]) }

// FleetTenant is the reserved tenant fleet submitters upload job
// bundles under. Fleet bundles skip the background verifier — workers
// replay them as part of the job itself.
const FleetTenant = "_fleet"

// handleFetch streams a stored bundle back to a worker: DATA frames in
// upload-sized chunks, then FINISH carrying the SHA-256 of the whole
// object so the worker can check what it reassembled. It returns the
// rejection that ends the session, if any.
func (s *Server) handleFetch(ss *session, payload []byte) *ServerError {
	f, err := decodeFetch(payload)
	if err != nil {
		s.ctrs.rejected.Add(1)
		return &ServerError{Code: CodeProtocol, Msg: err.Error()}
	}
	data, err := s.store.Get(f.Digest)
	if err != nil {
		return &ServerError{Code: CodeNotFound, Msg: fmt.Sprintf("digest %s: %v", f.Digest, err)}
	}
	for off := 0; off < len(data); off += uploadChunk {
		chunk := data[off:min(off+uploadChunk, len(data))]
		if ss.send(FrameData, func(a *wire.Appender) { a.Raw(chunk) }) != nil {
			return nil
		}
	}
	sum := sha256.Sum256(data)
	ss.send(FrameFinish, func(a *wire.Appender) { appendFinish(a, finishPayload{Digest: sum}) })
	return nil
}
