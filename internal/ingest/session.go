package ingest

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// session is one framed connection, and every ingest connection is
// one, on both ends: the server's upload, fetch, worker and submitter
// sessions, and Client, Submitter, WorkerConn and FetchBundle. It owns
// the conn, its read buffer and its write lock, so frames from several
// goroutines (a broker feeder and a session reader, a worker's job
// goroutines) never interleave. An upload session has one goroutine,
// which reads and writes it from HELLO to ACK.
//
// A server end bounds every write by the server's write timeout, and a
// failed write severs it: a peer that stopped draining its socket
// cannot wedge a broker feeder, and the session's reader sees the
// closed connection and ends. A client end sets no deadline and hands a
// failed write back to its caller, which can still read the ERROR the
// server sent before it closed.
type session struct {
	conn    net.Conn
	br      *bufio.Reader
	wmu     sync.Mutex
	timeout time.Duration // a server end's write deadline, never 0 (NewServer); 0 on a client end
	// partial holds the RESULT chunks of jobs whose last chunk has not
	// arrived, by job ID. Only the reading goroutine touches it.
	partial map[uint64][]byte
}

func newSession(conn net.Conn, timeout time.Duration) *session {
	return &session{conn: conn, br: bufio.NewReader(conn), timeout: timeout}
}

// dial connects to an ingest server and writes the opening frame build
// appends under kind: an ATTACH must be answered by a v3 WELCOME (open),
// a FETCH by the object itself. Kind 0 writes nothing, for a Client,
// which says HELLO when it uploads. dial is the one place a client end
// is made, and it leaves no connection open when it fails.
func dial(addr string, kind FrameKind, build func(*wire.Appender)) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ingest: dial: %w", err)
	}
	s := newSession(conn, 0)
	switch kind {
	case 0:
	case FrameFetch:
		err = s.send(kind, build)
	default:
		_, err = s.open(kind, build)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close severs the connection.
func (s *session) Close() error { return s.conn.Close() }

// send frames the payload build appends under kind and writes the frame
// in one Write from a pooled appender. Safe for concurrent use.
func (s *session) send(kind FrameKind, build func(*wire.Appender)) error {
	a := wire.GetAppender()
	defer wire.PutAppender(a)
	appendFrame(a, kind, build)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.timeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	}
	if _, err := s.conn.Write(a.Buf); err != nil {
		if s.timeout > 0 {
			s.conn.Close()
		}
		return fmt.Errorf("ingest: send %s: %w", kind, err)
	}
	return nil
}

// recv reads the next frame. On a client end an ERROR frame comes back
// as a *ServerError. No peer may send ERROR to a server end, which gets
// the frame as it comes, so its session refuses it as it refuses any
// unexpected frame.
func (s *session) recv() (FrameKind, []byte, error) {
	kind, payload, err := readFrame(s.br)
	if err != nil {
		return 0, nil, fmt.Errorf("ingest: recv: %w", err)
	}
	if kind == FrameError && s.timeout == 0 {
		e, err := decodeError(payload)
		if err != nil {
			return 0, nil, err
		}
		return 0, nil, &e
	}
	return kind, payload, nil
}

// open writes a client end's opening HELLO or ATTACH frame and checks
// the answer, which must be a v3 WELCOME.
func (s *session) open(kind FrameKind, build func(*wire.Appender)) (welcomePayload, error) {
	if err := s.send(kind, build); err != nil {
		return welcomePayload{}, err
	}
	kind, payload, err := s.recv()
	if err != nil {
		return welcomePayload{}, err
	}
	if kind != FrameWelcome {
		return welcomePayload{}, fmt.Errorf("%w: %s instead of welcome", ErrFrame, kind)
	}
	w, err := decodeWelcome(payload)
	if err == nil && w.Version != protoVersion {
		err = fmt.Errorf("%w: server answered v%d, client speaks v%d", ErrFrame, w.Version, protoVersion)
	}
	return w, err
}

// sendResult streams one job's result as RESULT frames sharing id, each
// carrying at most resultChunkSize data bytes; the last carries errMsg.
// Chunks of different jobs may interleave, since the ID keeps
// reassembly unambiguous.
func (s *session) sendResult(id uint64, data []byte, errMsg string) error {
	for {
		n := min(len(data), resultChunkSize)
		r := resultPayload{ID: id, Last: n == len(data), Data: data[:n]}
		if r.Last {
			r.Err = errMsg
		}
		if err := s.send(FrameResult, func(a *wire.Appender) { appendResult(a, r) }); err != nil || r.Last {
			return err
		}
		data = data[n:]
	}
}

// result reads RESULT frames until one job's last chunk arrives and
// returns that job's whole result. accept, when non-nil, vets each
// chunk's ID before a byte of it is kept; an ID it refuses is an
// ErrFrame, and so is a chunk that would take its job's reassembled
// bytes past limit.
func (s *session) result(accept func(id uint64) bool, limit int) (resultPayload, error) {
	for {
		kind, payload, err := s.recv()
		if err != nil {
			return resultPayload{}, err
		}
		if kind != FrameResult {
			return resultPayload{}, fmt.Errorf("%w: %s instead of result", ErrFrame, kind)
		}
		r, err := decodeResult(payload)
		if err != nil {
			return r, err
		}
		if accept != nil && !accept(r.ID) {
			return r, fmt.Errorf("%w: result for job %d, which is not in flight here", ErrFrame, r.ID)
		}
		p, ok := s.partial[r.ID]
		if len(r.Data) > limit-len(p) {
			return r, fmt.Errorf("%w: result for job %d exceeds %d bytes", ErrFrame, r.ID, limit)
		}
		if ok {
			r.Data = append(p, r.Data...)
			delete(s.partial, r.ID)
		}
		if r.Last {
			return r, nil
		}
		if s.partial == nil {
			s.partial = make(map[uint64][]byte)
		}
		s.partial[r.ID] = r.Data
	}
}
