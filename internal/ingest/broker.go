package ingest

// The fleet job broker: the server side of the v3 job plane. Worker
// processes ATTACH with a slot count and are fed JOB frames; submitters
// ATTACH and push JOB frames whose bodies the broker never inspects —
// a job is an opaque dispatch envelope naming a content-addressed
// bundle, and the broker's whole contract is routing: every submitted
// job eventually produces exactly one RESULT back on the submitter's
// connection (first result wins when re-dispatch races a straggler).
//
// Fault model: a worker that dies, hangs, or falls off the network has
// its in-flight jobs re-queued — on connection teardown immediately, on
// a silent stall when the job's deadline lapses. Duplicated execution
// is safe because every job is a pure function of the bundle it names;
// duplicate results are discarded by ID. A re-dispatch goes to another
// worker, never back to the one still holding the job. A worker may
// answer only the jobs in flight on it: a result under any other ID ends
// its session.

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// defaultJobTimeout is the in-flight deadline when Config.JobTimeout is
// zero.
const defaultJobTimeout = 30 * time.Second

// fleetConn is one attached fleet session (worker or submitter).
type fleetConn struct {
	*session
	slots int             // worker concurrency; 0 for submitters
	sent  map[uint64]bool // job IDs in flight on this worker (broker.mu)
	gone  bool            // torn down (broker.mu)
}

// brokerJob is one job on the board.
type brokerJob struct {
	id     uint64 // broker-global routing ID
	body   []byte // opaque dispatch envelope
	sub    *fleetConn
	subID  uint64 // submitter's own ID, echoed in the result
	queued bool   // sitting in pending (broker.mu)
	// deadline is when the current dispatch is declared a straggler
	// (meaningful only while !queued).
	deadline time.Time
}

// broker owns the job board.
type broker struct {
	s          *Server
	jobTimeout time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	pending []uint64 // dispatch queue (FIFO of job IDs)
	jobs    map[uint64]*brokerJob
	nextID  uint64
	closed  bool

	stopScan chan struct{}
	wg       sync.WaitGroup
}

func newBroker(s *Server, jobTimeout time.Duration) *broker {
	if jobTimeout <= 0 {
		jobTimeout = defaultJobTimeout
	}
	b := &broker{
		s:          s,
		jobTimeout: jobTimeout,
		jobs:       make(map[uint64]*brokerJob),
		stopScan:   make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	b.wg.Add(1)
	go b.scan()
	return b
}

// close stops the deadline scanner and unblocks every feeder. Live
// connections are closed by the server before this runs.
func (b *broker) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	close(b.stopScan)
	b.cond.Broadcast()
	b.wg.Wait()
}

// scan re-queues in-flight jobs whose deadline lapsed: a worker that
// silently stalled (or whose death the OS has not surfaced yet) loses
// the job to a faster peer. The original dispatch is not cancelled —
// whichever result arrives first wins.
func (b *broker) scan() {
	defer b.wg.Done()
	period := b.jobTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-b.stopScan:
			return
		case now := <-t.C:
			b.mu.Lock()
			requeued := false
			for id, j := range b.jobs {
				if !j.queued && now.After(j.deadline) {
					j.queued = true
					b.pending = append(b.pending, id)
					requeued = true
				}
			}
			b.mu.Unlock()
			if requeued {
				b.cond.Broadcast()
			}
		}
	}
}

// submit puts one job on the board.
func (b *broker) submit(sub *fleetConn, subID uint64, body []byte) {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.jobs[id] = &brokerJob{id: id, body: body, sub: sub, subID: subID, queued: true}
	b.pending = append(b.pending, id)
	b.mu.Unlock()
	b.cond.Broadcast() // a feeder woken alone might have no free slot
}

// nextJob blocks until w may be fed another job (or the broker/worker
// is done, returning nil). Marks the job in flight on w.
func (b *broker) nextJob(w *fleetConn) *brokerJob {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.closed || w.gone {
			return nil
		}
		if len(w.sent) < w.slots {
			if j := b.take(w); j != nil {
				j.queued = false
				j.deadline = time.Now().Add(b.jobTimeout)
				w.sent[j.id] = true
				return j
			}
		}
		b.cond.Wait()
	}
}

// take removes and returns the first queued job w may run, dropping the
// entries of jobs completed (or re-dispatched) while queued. A job still
// in flight on w stays queued for another worker: one worker never
// holds two dispatches of one ID, so it never answers one twice.
func (b *broker) take(w *fleetConn) *brokerJob {
	for i := 0; i < len(b.pending); {
		j := b.jobs[b.pending[i]]
		if j != nil && j.queued && w.sent[j.id] {
			i++
			continue
		}
		if i == 0 {
			b.pending = b.pending[1:]
		} else {
			b.pending = slices.Delete(b.pending, i, i+1)
		}
		if j != nil && j.queued {
			return j
		}
	}
	return nil
}

// inFlight reports whether job id was dispatched to w and has not come
// back from it: the only IDs w may send results for.
func (b *broker) inFlight(w *fleetConn, id uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return w.sent[id]
}

// complete routes one finished job's result to its submitter. Stale
// results — the job already completed elsewhere, or the submitter hung
// up — are discarded.
func (b *broker) complete(w *fleetConn, r resultPayload) {
	b.mu.Lock()
	delete(w.sent, r.ID) // frees a slot even when the result is stale
	j := b.jobs[r.ID]
	if j != nil {
		delete(b.jobs, r.ID)
	}
	var sub *fleetConn
	var subID uint64
	if j != nil && !j.sub.gone {
		sub, subID = j.sub, j.subID
	}
	b.mu.Unlock()
	b.cond.Broadcast() // a slot freed; feeders may proceed
	if sub != nil {
		sub.sendResult(subID, r.Data, r.Err)
	}
}

// workerGone tears down a worker: everything it had in flight goes back
// on the board.
func (b *broker) workerGone(w *fleetConn) {
	b.mu.Lock()
	w.gone = true
	for id := range w.sent {
		if j := b.jobs[id]; j != nil && !j.queued {
			j.queued = true
			b.pending = append(b.pending, id)
		}
	}
	w.sent = make(map[uint64]bool)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// submitterGone tears down a submitter: its unfinished jobs are dropped
// from the board (results would have nowhere to go).
func (b *broker) submitterGone(sub *fleetConn) {
	b.mu.Lock()
	sub.gone = true
	for id, j := range b.jobs {
		if j.sub == sub {
			delete(b.jobs, id) // pending entries skip via the nil check
		}
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// handleAttach runs one fleet session from its ATTACH frame on. Called
// on the connection handler goroutine; returns when the session ends,
// with the rejection that ended it, if any.
func (b *broker) handleAttach(ss *session, payload []byte) *ServerError {
	at, err := decodeAttach(payload)
	if err == nil {
		err = checkVersion(at.Version)
	}
	if err != nil {
		b.s.ctrs.rejected.Add(1)
		return &ServerError{Code: CodeProtocol, Msg: err.Error()}
	}
	if ss.send(FrameWelcome, func(a *wire.Appender) {
		appendWelcome(a, welcomePayload{Version: protoVersion, Credit: uint64(b.s.cfg.Credit)})
	}) != nil {
		return nil
	}
	fc := &fleetConn{session: ss}
	switch at.Role {
	case roleWorker:
		fc.slots = int(at.Slots)
		if fc.slots < 1 {
			fc.slots = 1
		}
		fc.sent = make(map[uint64]bool)
		b.runWorker(fc)
	case roleSubmitter:
		b.runSubmitter(fc)
	}
	return nil
}

// runWorker feeds jobs to an attached worker and routes its results.
// The feeder goroutine pulls from the board; the session goroutine
// (this one) reads the worker's results. A result for a job that is not
// in flight on this worker ends the session before any of it is kept.
func (b *broker) runWorker(fc *fleetConn) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			j := b.nextJob(fc)
			if j == nil {
				return
			}
			if fc.send(FrameJob, func(a *wire.Appender) { appendJobFrame(a, jobPayload{ID: j.id, Body: j.body}) }) != nil {
				b.workerGone(fc)
				return
			}
		}
	}()
	defer b.workerGone(fc)
	for {
		r, err := fc.result(func(id uint64) bool { return b.inFlight(fc, id) })
		if err != nil {
			if errors.Is(err, ErrFrame) {
				b.s.ctrs.rejected.Add(1)
			}
			return
		}
		b.complete(fc, r)
	}
}

// runSubmitter accepts jobs from an attached submitter until it hangs
// up. Results flow back asynchronously from complete().
func (b *broker) runSubmitter(fc *fleetConn) {
	defer b.submitterGone(fc)
	for {
		kind, payload, err := fc.recv()
		if err != nil {
			return
		}
		if kind != FrameJob {
			b.s.ctrs.rejected.Add(1)
			return
		}
		j, err := decodeJobFrame(payload)
		if err != nil {
			b.s.ctrs.rejected.Add(1)
			return
		}
		b.submit(fc, j.ID, j.Body)
	}
}
