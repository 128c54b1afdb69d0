package ingest

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
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
	// Shards is the number of shard workers; sessions map onto them by
	// tenant hash, so one tenant's uploads serialize on one appender while
	// distinct tenants proceed in parallel.
	Shards int
	// QueueDepth bounds each shard's message queue. A full queue is the
	// backpressure signal: session handlers block up to ShedTimeout for a
	// slot, then shed the session with a retryable error.
	QueueDepth int
	// ShedTimeout is how long a handler waits on a full shard queue
	// before shedding the session.
	ShedTimeout time.Duration
	// Credit is the per-session in-flight byte allowance granted at
	// WELCOME; the shard returns credit as it consumes DATA frames.
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
	// stopped draining its socket cannot wedge a shard worker.
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
		Shards:         4,
		QueueDepth:     64,
		ShedTimeout:    time.Second,
		Credit:         256 << 10,
		MaxUploadBytes: 64 << 20,
		Verifiers:      2,
		ReplayWorkers:  0,
		WriteTimeout:   10 * time.Second,
	}
}

// shardMsg is one unit of work on a shard queue.
type shardMsg struct {
	up   *upload
	kind FrameKind // FrameData, FrameFinish; 0 for abort
	data []byte    // DATA payload
	dig  [digestSize]byte
}

// shard is one ingest lane: a bounded queue drained by a single worker
// goroutine that owns the pooled appenders of every upload hashed onto
// it.
type shard struct {
	ch chan shardMsg
}

// upload is one in-flight upload's assembly state. The shard worker and
// the session handler both send frames on its session, and the shard
// skips an upload whose session is dead (a failed write, or a size
// overflow). The buf is owned by the shard worker between register and
// finish/abort.
type upload struct {
	*session
	tenant string
	buf    *wire.Appender
	size   int
	// sh is the upload's shard while it is registered and unfinished, so
	// the handler aborts it when the session ends. Handler-owned.
	sh *shard
}

// Server is the recording-as-a-service ingest endpoint.
type Server struct {
	cfg      Config
	ln       net.Listener
	store    *Store
	shards   []*shard
	verifier *verifierPool
	verdicts *verdictBoard
	broker   *broker
	ctrs     counters

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	handlers sync.WaitGroup
	shardWG  sync.WaitGroup
}

// NewServer opens the store, starts the shard workers and verifier
// pool, and begins listening. Serve must be called to accept sessions.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Shards < 1 || cfg.QueueDepth < 1 || cfg.Credit < 1 || cfg.MaxUploadBytes < 1 || cfg.WriteTimeout <= 0 {
		return nil, fmt.Errorf("ingest: config: shards, queue depth, credit, size cap and write timeout must be positive")
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
		verdicts: newVerdictBoard(),
		conns:    make(map[net.Conn]struct{}),
	}
	s.verifier = newVerifierPool(cfg.Verifiers, s.verdicts, func(j verifyJob) Verdict {
		return verifyBundle(j, cfg.ReplayWorkers)
	})
	s.broker = newBroker(s, cfg.JobTimeout)
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{ch: make(chan shardMsg, cfg.QueueDepth)}
		s.shards = append(s.shards, sh)
		s.shardWG.Add(1)
		go s.runShard(sh)
	}
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

// Close stops accepting, tears down live sessions, drains the shards
// and verifier pool, closes the store, and returns. Safe to call once.
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
	s.handlers.Wait() // all producers gone; shards can be closed
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.shardWG.Wait()
	s.broker.close()
	s.verifier.close()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// shardFor maps a tenant onto its shard by FNV-1a hash.
func (s *Server) shardFor(tenant string) *shard {
	h := fnv.New32a()
	io.WriteString(h, tenant)
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// enqueue offers msg to sh, blocking up to the shed timeout.
func (s *Server) enqueue(sh *shard, msg shardMsg) bool {
	select {
	case sh.ch <- msg:
		return true
	default:
	}
	t := time.NewTimer(s.cfg.ShedTimeout)
	defer t.Stop()
	select {
	case sh.ch <- msg:
		return true
	case <-t.C:
		return false
	}
}

// enqueueMust delivers lifecycle messages (abort) that release shard-
// owned state; these block without a timeout because dropping them
// would leak the upload's pooled buffer.
func (s *Server) enqueueMust(sh *shard, msg shardMsg) {
	sh.ch <- msg
}

// handle runs one session. The opening frame selects the session type:
// HELLO starts an upload (WELCOME, then the DATA/FINISH loop), ATTACH
// joins the fleet job plane as a worker or submitter, FETCH streams a
// stored bundle back. For uploads the handler owns the read side; the
// shard worker owns the upload buffer and sends GRANT/ACK frames. A
// session that ends in a rejection sends it as its last frame.
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
		up := &upload{session: ss}
		defer s.abort(up) // after the rejection is sent
		rej = s.handleUpload(up, payload)
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

// handleUpload runs an upload session from its HELLO on and returns
// the rejection that ends it, if any.
func (s *Server) handleUpload(up *upload, payload []byte) *ServerError {
	// A future client offering a higher version is answered at v3 (the
	// WELCOME below), not rejected.
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
	up.tenant = hello.Tenant
	sh := s.shardFor(hello.Tenant)

	// Register with the shard: the worker attaches the pooled appender.
	// Registration rides the same bounded queue as data, so an overloaded
	// shard sheds the session before it ever buffers a byte.
	if !s.enqueue(sh, shardMsg{up: up, kind: FrameHello}) {
		s.ctrs.shed.Add(1)
		return &ServerError{Code: CodeOverloaded, Retryable: true, Msg: "shard queue full"}
	}
	up.sh = sh
	if up.send(FrameWelcome, func(a *wire.Appender) {
		appendWelcome(a, welcomePayload{Version: protoVersion, Credit: uint64(s.cfg.Credit)})
	}) != nil {
		return nil
	}

	for {
		kind, payload, err := up.recv()
		if err != nil {
			return nil // torn upload: the abort reclaims state
		}
		switch kind {
		case FrameData, FrameDataZ:
			if kind == FrameDataZ {
				// Decode before the shard queue so the grant (and every
				// byte-accounting path) sees decoded sizes. A conforming
				// client never has more than its credit in flight, so a
				// block declaring more is refused unexpanded.
				payload, err = decodeDataZ(payload, s.cfg.Credit)
				if err != nil {
					s.ctrs.rejected.Add(1)
					return &ServerError{Code: CodeProtocol, Msg: err.Error()}
				}
				s.ctrs.framesCompressed.Add(1)
			}
			if !s.enqueue(sh, shardMsg{up: up, kind: FrameData, data: payload}) {
				s.ctrs.shed.Add(1)
				return &ServerError{Code: CodeOverloaded, Retryable: true, Msg: "shard queue full"}
			}
			s.ctrs.bytesIngested.Add(uint64(len(payload)))
		case FrameFinish:
			fin, err := decodeFinish(payload)
			if err != nil {
				s.ctrs.rejected.Add(1)
				return &ServerError{Code: CodeProtocol, Msg: err.Error()}
			}
			up.sh = nil // finished: no abort is owed
			s.enqueueMust(sh, shardMsg{up: up, kind: FrameFinish, dig: fin.Digest})
			// The shard sends ACK (or ERROR) and releases the buffer; the
			// session is done once the client closes its side.
			io.Copy(io.Discard, up.br)
			return nil
		default:
			s.ctrs.rejected.Add(1)
			return &ServerError{Code: CodeProtocol, Msg: "unexpected " + kind.String() + " frame"}
		}
	}
}

// abort releases an upload its session left registered and unfinished:
// torn, shed or rejected.
func (s *Server) abort(up *upload) {
	if up.sh != nil {
		s.ctrs.aborted.Add(1)
		s.enqueueMust(up.sh, shardMsg{up: up})
	}
}

// runShard drains one shard queue. The worker is the sole owner of
// every registered upload's assembly buffer, so appends need no locks;
// it returns credit after consuming each DATA frame, which is what
// closes the flow-control loop.
func (s *Server) runShard(sh *shard) {
	defer s.shardWG.Done()
	for msg := range sh.ch {
		up := msg.up
		var rej *ServerError
		switch msg.kind {
		case FrameHello:
			up.buf = wire.GetAppender()
		case FrameData:
			if up.dead.Load() {
				continue
			}
			if up.size+len(msg.data) > s.cfg.MaxUploadBytes {
				up.dead.Store(true)
				s.ctrs.rejected.Add(1)
				rej = &ServerError{Code: CodeTooLarge, Msg: fmt.Sprintf("upload exceeds %d bytes", s.cfg.MaxUploadBytes)}
				break
			}
			up.buf.Raw(msg.data)
			up.size += len(msg.data)
			// A failed grant marks the upload dead and severs it; the
			// handler will see the closed conn and abort.
			up.send(FrameGrant, func(a *wire.Appender) { appendGrant(a, grantPayload{Bytes: uint64(len(msg.data))}) })
		case FrameFinish:
			rej = s.finishUpload(up, msg.dig)
			s.releaseUpload(up)
		default: // abort
			s.releaseUpload(up)
		}
		if rej != nil {
			up.send(FrameError, func(a *wire.Appender) { appendError(a, *rej) })
		}
	}
}

// releaseUpload returns the upload's pooled buffer.
func (s *Server) releaseUpload(up *upload) {
	if up.buf != nil {
		wire.PutAppender(up.buf)
		up.buf = nil
	}
}

// finishUpload verifies the upload digest, stores the bundle, queues
// verification, and acks, or returns the rejection to send instead.
func (s *Server) finishUpload(up *upload, want [digestSize]byte) *ServerError {
	if up.dead.Load() {
		return nil
	}
	got := sha256.Sum256(up.buf.Buf)
	if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
		s.ctrs.rejected.Add(1)
		return &ServerError{Code: CodeDigestMismatch,
			Msg: fmt.Sprintf("upload hashed to %x, client declared %x", got, want)}
	}
	digest, existed, err := s.store.Put(up.buf.Buf, got)
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
	if up.tenant != FleetTenant && s.verdicts.claim(up.tenant, digest) {
		// Verification reads the bundle back from the store (not the pooled
		// buffer, which is about to be recycled): the verdict describes the
		// durable object.
		if data, err := s.store.Get(digest); err == nil {
			s.verifier.enqueue(verifyJob{tenant: up.tenant, digest: digest, data: data})
		} else {
			s.verdicts.publish(Verdict{
				Tenant: up.tenant, Digest: digest,
				Status: StatusUnverifiable, Detail: err.Error(),
			})
		}
	}
	// Count before writing: a client that has read its ACK must find the
	// upload in Counters. A write that fails takes the count back.
	s.ctrs.accepted.Add(1)
	if up.send(FrameAck, func(a *wire.Appender) { appendAck(a, ackPayload{Digest: digest, Duplicate: existed}) }) != nil {
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
