package ingest

// Client-side fleet transport: typed connections for the two ATTACH
// roles plus the FETCH opener. These are deliberately thin — framing,
// negotiation, chunk reassembly — so the executor and worker logic can
// live outside this package (internal/fleet) without re-implementing
// the wire protocol.

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/wire"
)

// Submitter is a submitter-role fleet session: it pushes job bodies
// under caller-chosen IDs and pulls completed results. Close severs the
// session; the server drops any unfinished jobs.
type Submitter struct {
	*session
}

// DialSubmitter attaches to a fleet server as a submitter.
func DialSubmitter(addr string) (*Submitter, error) {
	s, err := dial(addr, FrameAttach, func(a *wire.Appender) {
		appendAttach(a, attachPayload{Version: protoVersion, Role: roleSubmitter})
	})
	if err != nil {
		return nil, err
	}
	return &Submitter{s}, nil
}

// Submit puts one job on the server's board under id. IDs are the
// caller's namespace; reusing one before its result arrives is a
// caller bug.
func (s *Submitter) Submit(id uint64, body []byte) error {
	return s.send(FrameJob, func(a *wire.Appender) { appendJobFrame(a, jobPayload{ID: id, Body: body}) })
}

// Next blocks for the next completed job: its ID, result payload, and
// the worker-side error message (empty on success). Results arrive in
// completion order, not submission order.
func (s *Submitter) Next() (id uint64, data []byte, errMsg string, err error) {
	r, err := s.result(nil)
	if err != nil {
		return 0, nil, "", err
	}
	return r.ID, r.Data, r.Err, nil
}

// WorkerConn is a worker-role fleet session: it pulls job envelopes and
// pushes results. Reads and writes may come from different goroutines
// (jobs execute concurrently). Close severs the session; the server
// re-queues anything in flight.
type WorkerConn struct {
	*session
}

// DialWorker attaches to a fleet server as a worker advertising the
// given slot count.
func DialWorker(addr string, slots int) (*WorkerConn, error) {
	s, err := dial(addr, FrameAttach, func(a *wire.Appender) {
		appendAttach(a, attachPayload{Version: protoVersion, Role: roleWorker, Slots: uint64(slots)})
	})
	if err != nil {
		return nil, err
	}
	return &WorkerConn{s}, nil
}

// NextJob blocks for the next job envelope.
func (w *WorkerConn) NextJob() (id uint64, body []byte, err error) {
	kind, payload, err := w.recv()
	if err != nil {
		return 0, nil, err
	}
	if kind != FrameJob {
		return 0, nil, fmt.Errorf("%w: %s instead of job", ErrFrame, kind)
	}
	j, err := decodeJobFrame(payload)
	if err != nil {
		return 0, nil, err
	}
	return j.ID, j.Body, nil
}

// SendResult streams one job's result back, chunked under the
// maxFramePayload cap. Safe for concurrent use.
func (w *WorkerConn) SendResult(id uint64, data []byte, errMsg string) error {
	return w.sendResult(id, data, errMsg)
}

// FetchBundle retrieves a stored bundle by digest over a fetch session:
// the server streams DATA frames and closes with FINISH carrying the
// object's SHA-256, which is checked against both the reassembled bytes
// and the requested digest.
func FetchBundle(addr, digest string) ([]byte, error) {
	s, err := dial(addr, FrameFetch, func(a *wire.Appender) { appendFetch(a, fetchPayload{Digest: digest}) })
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var data []byte
	for {
		kind, payload, err := s.recv()
		if err != nil {
			return nil, err
		}
		switch kind {
		case FrameData:
			data = append(data, payload...)
		case FrameFinish:
			fin, err := decodeFinish(payload)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(data)
			if hexDigest(sum) != digest || sum != fin.Digest {
				return nil, fmt.Errorf("%w: fetched object hashes to %x, asked for %s", ErrFrame, sum, digest)
			}
			return data, nil
		default:
			return nil, fmt.Errorf("%w: %s during fetch", ErrFrame, kind)
		}
	}
}
