package fleet

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/ingest"
	"repro/internal/isa"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Worker is one fleet worker process: it attaches to a server's job
// broker, pulls job envelopes, materializes the bundles they name (by
// digest, through the server's content-addressed store, cached across
// jobs), executes, and pushes results. A worker holds no state a peer
// could miss: everything it computes is a pure function of the bundle,
// which is what makes straggler re-dispatch and first-result-wins safe.
type Worker struct {
	// Addr is the fleet server address.
	Addr string
	// Slots is the number of jobs run concurrently (minimum 1).
	Slots int

	mu    sync.Mutex
	cache map[string]*bundleEntry
}

// bundleEntry caches one digest's materialized bundle, program and
// interval-job runner. The once gate means concurrent jobs naming the
// same digest fetch and partition it exactly once; a failed load is
// evicted, so the next job for the digest fetches again.
type bundleEntry struct {
	once   sync.Once
	b      *core.Bundle
	prog   *isa.Program
	jobber *replay.IntervalRunner
	err    error
}

// Run attaches and serves jobs until the connection drops (server
// shutdown, network fault) — the normal way a worker exits.
func (w *Worker) Run() error {
	slots := w.Slots
	if slots < 1 {
		slots = 1
	}
	wc, err := ingest.DialWorker(w.Addr, slots)
	if err != nil {
		return err
	}
	defer wc.Close()
	sem := make(chan struct{}, slots)
	var jobs sync.WaitGroup
	defer jobs.Wait()
	for {
		id, body, err := wc.NextJob()
		if err != nil {
			return err
		}
		sem <- struct{}{}
		jobs.Add(1)
		go func(id uint64, body []byte) {
			defer jobs.Done()
			defer func() { <-sem }()
			payload, jerr := w.exec(body)
			var res wire.Appender
			r := dispatch.JobResult{Payload: payload}
			if jerr != nil {
				r = dispatch.JobResult{Err: jerr.Error()}
			}
			dispatch.AppendJobResult(&res, r)
			wc.SendResult(id, res.Buf, "")
		}(id, body)
	}
}

// exec routes one job envelope to its domain codec.
func (w *Worker) exec(body []byte) ([]byte, error) {
	job, err := dispatch.DecodeJob(body)
	if err != nil {
		return nil, err
	}
	e := w.load(job.Digest)
	if e.err != nil {
		return nil, e.err
	}
	switch job.Kind {
	case dispatch.JobReplayInterval:
		return e.jobber.Exec(job.Payload)
	case dispatch.JobScreenBlock:
		return races.ExecScreenJob(e.b, job.Payload)
	case dispatch.JobConfirmSlice:
		return races.ExecConfirmJob(e.prog, e.b, job.Payload)
	}
	return nil, fmt.Errorf("fleet: unroutable job kind %d", job.Kind)
}

// load materializes a digest: fetch from the server's store, decode the
// bundle (a marshaled bundle first, then stream salvage for raw
// recorded streams), and rebuild the program from the manifest name.
// Jobs already waiting on a failing load share its error; the entry is
// then dropped from the cache, so one transient fetch fault does not
// fail every later job for the digest.
func (w *Worker) load(digest string) *bundleEntry {
	w.mu.Lock()
	if w.cache == nil {
		w.cache = make(map[string]*bundleEntry)
	}
	e := w.cache[digest]
	if e == nil {
		e = &bundleEntry{}
		w.cache[digest] = e
	}
	w.mu.Unlock()
	e.once.Do(func() {
		data, err := ingest.FetchBundle(w.Addr, digest)
		if err != nil {
			e.err = fmt.Errorf("fleet: fetch %s: %w", digest, err)
			return
		}
		b, err := core.UnmarshalBundle(data)
		if err != nil {
			sv, serr := core.SalvageStream(data)
			if serr != nil {
				e.err = fmt.Errorf("fleet: %s decodes as neither bundle (%v) nor stream (%v)", digest, err, serr)
				return
			}
			b = sv.Bundle
		}
		prog, err := workload.ProgramByName(b.ProgramName, b.Threads)
		if err != nil {
			e.err = err
			return
		}
		jobber, err := core.ReplayJobber(prog, b)
		if err != nil {
			e.err = err
			return
		}
		e.b, e.prog, e.jobber = b, prog, jobber
	})
	if e.err != nil {
		w.mu.Lock()
		if w.cache[digest] == e {
			delete(w.cache, digest)
		}
		w.mu.Unlock()
	}
	return e
}
