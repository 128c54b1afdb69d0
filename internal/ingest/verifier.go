package ingest

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/workload"
)

// verifyJob names one stored bundle awaiting verification. It carries
// no bytes: the verifier reads the object from the store when it takes
// the job, so a backlog holds names, not uploads.
type verifyJob struct {
	tenant string
	digest string
}

// verifierPool verifies stored uploads in the background: each of its
// goroutines takes one queued job at a time, runs verify on it (the
// server passes verifyBundle) and publishes the verdict, so a queued
// upload waits only for a free verifier. The queue is an in-memory list
// fed by upload sessions as they store each upload — enqueue never
// blocks the ingest data path; the measured queue depth is the backlog
// signal.
type verifierPool struct {
	verify   func(verifyJob) Verdict
	verdicts *verdictBoard

	mu    sync.Mutex
	cond  *sync.Cond
	queue []verifyJob
	stop  bool
	busy  int

	wg sync.WaitGroup
}

func newVerifierPool(workers int, board *verdictBoard, verify func(verifyJob) Verdict) *verifierPool {
	p := &verifierPool{verify: verify, verdicts: board}
	p.cond = sync.NewCond(&p.mu)
	workers = max(workers, 1)
	p.wg.Add(workers)
	for range workers {
		go p.run()
	}
	return p
}

// enqueue hands a stored bundle to the pool. Never blocks.
func (p *verifierPool) enqueue(j verifyJob) {
	p.mu.Lock()
	p.queue = append(p.queue, j)
	p.mu.Unlock()
	p.cond.Broadcast() // waitIdle shares the cond, so wake every waiter
}

// depth returns the number of bundles waiting (not counting in-flight).
func (p *verifierPool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// waitIdle blocks until the queue is drained and no worker is mid-job.
func (p *verifierPool) waitIdle() {
	p.mu.Lock()
	for len(p.queue) > 0 || p.busy > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// close drains the queue and stops the workers.
func (p *verifierPool) close() {
	p.mu.Lock()
	p.stop = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// run is one verifier: it takes jobs one at a time until the pool is
// closed and its queue drained.
func (p *verifierPool) run() {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for len(p.queue) == 0 && !p.stop {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.busy++
		p.mu.Unlock()
		p.verdicts.publish(p.verify(j))
		p.mu.Lock()
		p.busy--
		p.cond.Broadcast() // wake waitIdle
	}
}

// verifyBundle is the whole per-bundle pipeline: read the stored
// object back, salvage, rebuild, replay, compare. The verdict describes
// the durable object, not the bytes the upload arrived in. It never
// fails the ingest path — every outcome is a verdict.
func verifyBundle(st *Store, j verifyJob, replayWorkers int) Verdict {
	v := Verdict{Tenant: j.tenant, Digest: j.digest}
	data, err := st.Get(j.digest)
	if err != nil {
		v.Status = StatusUnverifiable
		v.Detail = err.Error()
		return v
	}
	sv, err := core.SalvageStream(data)
	if err != nil {
		v.Status = StatusDiverged
		v.Detail = fmt.Sprintf("salvage: %v", err)
		return v
	}
	b := sv.Bundle
	v.Program = b.ProgramName
	v.Threads = b.Threads
	prog, err := workload.ProgramByName(b.ProgramName, b.Threads)
	if err != nil {
		v.Status = StatusUnverifiable
		v.Detail = err.Error()
		return v
	}
	rr, err := core.ReplayWorkers(prog, b, replayWorkers)
	if err != nil {
		v.Status = StatusDiverged
		v.Detail = fmt.Sprintf("replay: %v", err)
		return v
	}
	v.Steps = rr.Steps
	v.MemChecksum = rr.MemChecksum
	if b.Partial {
		// A torn upload (or torn recording) salvages to a validated prefix
		// with no reference final state: the prefix replayed cleanly, which
		// is all that can be asserted.
		v.Status = StatusTorn
		v.Detail = sv.Report.Reason
		return v
	}
	if err := core.Verify(b, rr); err != nil {
		v.Status = StatusDiverged
		v.Detail = err.Error()
		return v
	}
	v.Status = StatusAccepted
	return v
}
