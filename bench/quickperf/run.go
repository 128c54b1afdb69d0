package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/isa"
	"repro/internal/perf"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/stats"
)

// Load shape. Two closed-loop clients, because the reference host has two
// CPUs; the analyze layers and the fleet worker get two workers each.
const (
	clients        = 2
	analyzeWorkers = 2
	fleetSlots     = 2
	uploadAttempts = 5
	uploadBackoff  = 10 * time.Millisecond
	// serialJobs bounds the traced run's allocation pass.
	serialJobs = 50
)

func clientName(i int) string { return fmt.Sprintf("client-%d", i) }

// options configures one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	workdir  string
	setups   int // set-ups timed; the last one serves the run
}

// tally accumulates one client's work and per-layer counts.
type tally struct {
	jobs, failed int
	errs         []string
	instrs       uint64
	uploadBytes  uint64
	retries      int
	queueMax     int
	detects      int
	candidates   int
	confirmed    int
	fleetCalls   int
	intervalJobs int
}

func (t *tally) add(o *tally) {
	t.jobs += o.jobs
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
	t.instrs += o.instrs
	t.uploadBytes += o.uploadBytes
	t.retries += o.retries
	t.queueMax = max(t.queueMax, o.queueMax)
	t.detects += o.detects
	t.candidates += o.candidates
	t.confirmed += o.confirmed
	t.fleetCalls += o.fleetCalls
	t.intervalJobs += o.intervalJobs
}

// countingExec is a fleet client that counts the interval jobs it ships.
type countingExec struct {
	*fleet.Client
	tasks int
}

func (c *countingExec) Execute(s dispatch.Spec) error {
	c.tasks += s.Tasks
	return c.Client.Execute(s)
}

// client is one closed-loop client: it starts its next job only when the
// previous one has finished.
type client struct {
	id     int
	tenant string
	stream bytes.Buffer       // ingest: the recorded stream, reused
	dec    core.BundleDecoder // analyze: reused decode storage
	fleet  *countingExec      // analyze
	t      tally
}

// env is one set-up: programs, reference recordings, fixtures, a loopback
// ingest server on a fresh store, the fleet worker and the clients.
type env struct {
	w       *workloadSpec
	seed    uint64
	progs   map[string]*isa.Program
	ref     *model
	fx      map[string]*fixture
	dir     string
	srv     *ingest.Server
	served  chan struct{}
	worked  chan struct{}
	clients []*client
	tr      *tracer
}

func setup(w *workloadSpec, seed uint64, workdir string) (e *env, err error) {
	e = &env{w: w, seed: seed}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.progs, err = buildPrograms(w.programs); err != nil {
		return e, err
	}
	if e.ref, err = reference(w.programs, e.progs); err != nil {
		return e, err
	}
	if w.analyze {
		if e.fx, err = recordFixtures(w, seed, e.progs); err != nil {
			return e, err
		}
	}
	if e.dir, err = os.MkdirTemp(workdir, "store-"); err != nil {
		return e, err
	}
	cfg := ingest.DefaultConfig()
	cfg.StoreDir = e.dir
	if e.srv, err = ingest.NewServer(cfg); err != nil {
		return e, err
	}
	e.served = make(chan struct{})
	go func() {
		e.srv.Serve() // returns net.ErrClosed once close stops it
		close(e.served)
	}()
	if w.analyze {
		e.worked = make(chan struct{})
		wk := &fleet.Worker{Addr: e.srv.Addr(), Slots: fleetSlots}
		go func() {
			wk.Run() // returns when the server severs the connection
			close(e.worked)
		}()
	}
	for i := 0; i < clients; i++ {
		c := &client{id: i, tenant: clientName(i)}
		if w.analyze {
			fc, err := fleet.Dial(e.srv.Addr())
			if err != nil {
				return e, err
			}
			c.fleet = &countingExec{Client: fc}
		}
		e.clients = append(e.clients, c)
	}
	return e, e.warmup()
}

// warmup runs every program once, two clients at a time, untimed.
func (e *env) warmup() error {
	var js []job
	for k, name := range e.w.programs {
		js = append(js, job{index: warmupBase + k, program: name, seed: schedSeed(e.seed, warmupBase+k)})
	}
	for len(js) > 0 {
		n := min(clients, len(js))
		e.round(js[:n])
		js = js[n:]
	}
	for _, c := range e.clients {
		if c.t.failed > 0 {
			return fmt.Errorf("warm-up: %s", c.t.errs[0])
		}
		c.t = tally{}
	}
	return nil
}

func (e *env) close() {
	for _, c := range e.clients {
		if c.fleet != nil {
			c.fleet.Close()
		}
	}
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
	if e.worked != nil {
		<-e.worked
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// round runs js[i] on client i, all at once, and returns when every job
// has finished.
func (e *env) round(js []job) {
	var wg sync.WaitGroup
	for i, j := range js {
		wg.Add(1)
		go func(c *client, j job) {
			defer wg.Done()
			e.runJob(c, j, &c.t)
		}(e.clients[i], j)
	}
	wg.Wait()
}

// loop is the timed closed loop: rounds in which both clients start a job
// together, the round ending when both jobs have (on the ingest
// workloads, when both verdicts are published). A latency sample is a
// round; since each client cycles through the programs on its own, a
// round's latency is the slower of two independent draws, whose median
// lies inside one program's latencies rather than in a gap between two.
// The loop stops at the first round boundary after d. Between rounds,
// every probeEvery, it measures the host's speed and samples the resident
// set size.
func (e *env) loop(d time.Duration, speed *hostSpeed) (tally, loopStats) {
	var ls loopStats
	start := time.Now()
	lastProbe := start.Add(-probeEvery) // probe before the first round
	for r := 0; r == 0 || time.Since(start) < d; r++ {
		if time.Since(lastProbe) >= probeEvery {
			wall, cpu := speed.probe()
			ls.probeWall += wall
			ls.probeCPU += cpu
			ls.rssMB = append(ls.rssMB, rssMB())
			lastProbe = time.Now()
		}
		js := make([]job, clients)
		for i := range js {
			js[i] = e.w.job(e.seed, r*clients+i)
		}
		t0 := time.Now()
		e.round(js)
		ls.roundMs = append(ls.roundMs, ms(time.Since(t0)))
	}
	var t tally
	for _, c := range e.clients {
		t.add(&c.t)
	}
	return t, ls
}

// loopStats is what the timed loop measured besides the clients' work:
// round latencies, the time its probes took, to be left out of its
// measurements, and the resident set sizes sampled at the probes.
type loopStats struct {
	roundMs             []float64
	probeWall, probeCPU time.Duration
	rssMB               []float64
}

// runJob runs one job as client c under a job span and tallies it.
func (e *env) runJob(c *client, j job, t *tally) {
	js := e.tr.open(spanRef{job: j.index, client: c.id}, "job")
	var err error
	if e.w.analyze {
		err = e.analyzeJob(c, j, js, t)
	} else {
		err = e.ingestJob(c, j, js, t)
	}
	e.tr.close(js)
	t.jobs++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, fmt.Sprintf("job %d (%s): %v", j.index, j.program, err))
	}
}

// ingestJob records the job's program while streaming it, uploads the
// stream, and waits for the server's verdict on it.
func (e *env) ingestJob(c *client, j job, js spanRef, t *tally) error {
	c.stream.Reset()
	var rec *core.Bundle
	err := e.tr.call(js, "machine.record", func() (err error) {
		rec, err = core.StreamRecord(e.progs[j.program], recordConfig(j.seed), &c.stream)
		return err
	})
	if err != nil {
		return err
	}
	t.instrs += rec.RecordStats.Retired
	var digest string
	var dup bool
	err = e.tr.call(js, "ingest.upload", func() (err error) {
		var retries int
		digest, dup, retries, err = ingest.Upload(e.srv.Addr(), c.tenant, c.stream.Bytes(), uploadAttempts, uploadBackoff)
		t.retries += retries
		return err
	})
	if err != nil {
		return err
	}
	t.uploadBytes += uint64(c.stream.Len())
	t.queueMax = max(t.queueMax, e.srv.Counters().VerifyQueue)
	if dup {
		return fmt.Errorf("upload was deduplicated against stored %s", digest)
	}
	var v ingest.Verdict
	var ok bool
	e.tr.call(js, "ingest.verify_wait", func() error {
		e.srv.WaitIdle()
		v, ok = e.srv.Verdict(c.tenant, digest)
		return nil
	})
	wantSteps := int64(rec.RecordStats.Retired) + e.ref.stepSurplus[j.program]
	switch {
	case !ok:
		return fmt.Errorf("no verdict published for %s", digest)
	case v.Status != ingest.StatusAccepted:
		return fmt.Errorf("verdict %s: %s", v.Status, v.Detail)
	case v.MemChecksum != rec.MemChecksum:
		return fmt.Errorf("verdict memory checksum %#x != recorded %#x", v.MemChecksum, rec.MemChecksum)
	case int64(v.Steps) != wantSteps:
		return fmt.Errorf("verdict steps %d != %d expected from the recording", v.Steps, wantSteps)
	}
	return nil
}

// analyzeJob decodes the job's fixture, replays and verifies it locally,
// detects races, and replays it again through the fleet.
func (e *env) analyzeJob(c *client, j job, js spanRef, t *tally) error {
	fx := e.fx[j.program]
	t.instrs += fx.instrs
	var b *core.Bundle
	err := e.tr.call(js, "core.decode", func() (err error) {
		b, err = c.dec.Decode(fx.data)
		return err
	})
	if err != nil {
		return err
	}
	var local *replay.Result
	err = e.tr.call(js, "replay", func() (err error) {
		local, err = core.ReplayWorkers(fx.prog, b, analyzeWorkers)
		return err
	})
	if err != nil {
		return err
	}
	if err := e.tr.call(js, "replay.verify", func() error { return core.Verify(b, local) }); err != nil {
		return err
	}
	var rep *races.Report
	err = e.tr.call(js, "races.detect", func() (err error) {
		rep, err = races.DetectWorkers(fx.prog, b, analyzeWorkers)
		return err
	})
	if err != nil {
		return err
	}
	t.detects++
	t.candidates += len(rep.Candidates)
	t.confirmed += rep.ConfirmedPairs
	if (fx.expect == "racy" && len(rep.Races) == 0) || (fx.expect == "racefree" && len(rep.Races) != 0) {
		return fmt.Errorf("%d races confirmed on a %s program", len(rep.Races), fx.expect)
	}
	var remote *replay.Result
	tasks := c.fleet.tasks
	err = e.tr.call(js, "fleet.replay", func() error {
		// fleet.Client.Replay's two steps, through the counting executor.
		digest, err := c.fleet.Upload(b)
		if err != nil {
			return err
		}
		remote, err = core.ReplayDistributed(fx.prog, b, c.fleet, digest)
		return err
	})
	t.fleetCalls++
	t.intervalJobs += c.fleet.tasks - tasks
	if err != nil {
		return err
	}
	return sameReplay(local, remote)
}

// sameReplay checks that two replays of one recording agree bit for bit.
func sameReplay(want, got *replay.Result) error {
	switch {
	case want.MemChecksum != got.MemChecksum:
		return fmt.Errorf("fleet replay memory checksum %#x != local %#x", got.MemChecksum, want.MemChecksum)
	case !bytes.Equal(want.Output, got.Output):
		return fmt.Errorf("fleet replay output differs from local")
	case want.Steps != got.Steps || want.ChunksExecuted != got.ChunksExecuted || want.InputsApplied != got.InputsApplied:
		return fmt.Errorf("fleet replay counters %d/%d/%d != local %d/%d/%d",
			got.Steps, got.ChunksExecuted, got.InputsApplied, want.Steps, want.ChunksExecuted, want.InputsApplied)
	case !reflect.DeepEqual(want.FinalContexts, got.FinalContexts),
		!reflect.DeepEqual(want.RetiredPerThread, got.RetiredPerThread):
		return fmt.Errorf("fleet replay final thread state differs from local")
	case (want.FinalMem == nil) != (got.FinalMem == nil) || (want.FinalMem != nil && !want.FinalMem.Equal(got.FinalMem)):
		return fmt.Errorf("fleet replay final memory differs from local")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func percentile(xs []float64, p float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(p)
}

func cpuTime() (time.Duration, int64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

// run performs one benchmark run: the timed set-ups, the timed loop and,
// when traced, the per-layer breakdown.
func run(o options) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	var speed hostSpeed
	var setupS []float64
	var e *env
	for i := 0; i < max(o.setups, 1); i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		if e, err = setup(w, o.seed, o.workdir); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer e.close()
	if o.trace {
		e.tr = newTracer()
	}

	runtime.GC()
	cpu0, _ := cpuTime()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	shed0 := e.srv.Counters().Shed
	start := time.Now()
	t, ls := e.loop(time.Duration(o.seconds*float64(time.Second)), &speed)
	wall := time.Since(start) - ls.probeWall
	runtime.ReadMemStats(&mem1)
	cpu1, maxRSS := cpuTime()

	// Host times in reference-host units (see hostspeed.go).
	f := speed.factor()
	kinstr := float64(t.instrs) / 1e3
	m := e.ref
	r := &result{workload: w.name, seed: o.seed, attempted: t.jobs, failed: t.failed, errs: t.errs,
		samples: len(ls.roundMs), setups: len(setupS), traced: o.trace}
	raw := []metric{
		{"sim_minstr_per_s", float64(t.instrs) / 1e6 / wall.Seconds(), "Minstr/s"},
		{"cpu_us_per_kinstr", float64((cpu1 - cpu0 - ls.probeCPU).Microseconds()) / kinstr, "us/kinstr"},
		{"job_p50_ms", percentile(ls.roundMs, 50), "ms"},
		{"job_p90_ms", percentile(ls.roundMs, 90), "ms"},
		{"setup_s", percentile(setupS, 50), "s"},
	}
	r.endToEnd = []metric{
		{"sim_minstr_per_s", raw[0].value / f, "Minstr/s"},
		{"cpu_us_per_kinstr", raw[1].value * f, "us/kinstr"},
		{"job_p50_ms", raw[2].value * f, "ms"},
		{"job_p90_ms", raw[3].value * f, "ms"},
		{"allocs_per_kinstr", float64(mem1.Mallocs-mem0.Mallocs) / kinstr, "allocs/kinstr"},
		{"rss_mb", percentile(ls.rssMB, 50), "MB"},
		{"setup_s", raw[4].value * f, "s"},
		{"rec_overhead_pct", 100 * m.overheadSum / float64(m.recordings), "%"},
		{"log_bytes_per_kinstr", float64(m.streamBytes) / (float64(m.instrs) / 1e3), "B/kinstr"},
	}
	r.extra = []metric{{"host_speed", f, "x"}, {"peak_rss_mb", float64(maxRSS) * 1024 / 1e6, "MB"}}
	for _, m := range raw {
		r.extra = append(r.extra, metric{"raw." + m.name, m.value, m.unit})
	}
	if !o.trace {
		return r, nil
	}

	r.spans = append([]span(nil), e.tr.spans...)
	total, self := layerTimes(r.spans)
	durations := func(layer string) []float64 {
		var xs []float64
		for _, s := range r.spans {
			if s.layer == layer {
				xs = append(xs, ms(s.end-s.start)*f)
			}
		}
		return xs
	}
	nsPerKinstr := func(layer string) float64 { return float64(self[layer].Nanoseconds()) * f / kinstr }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// The allocation pass: jobs one at a time, so the process-wide heap
	// counters around a call belong to that call (and the goroutines it
	// waits on).
	e.tr.allocs = make(map[string]*memDelta)
	var pass tally
	for i := 0; i < min(serialJobs, t.jobs); i++ {
		e.runJob(e.clients[0], e.w.job(o.seed, serialBase+i), &pass)
	}
	r.attempted += pass.jobs
	r.failed += pass.failed
	r.errs = append(r.errs, pass.errs...)
	passKinstr := float64(pass.instrs) / 1e3
	allocs := func(layer string) *memDelta {
		if d := e.tr.allocs[layer]; d != nil {
			return d
		}
		return &memDelta{}
	}

	refKinstr := float64(m.instrs) / 1e3
	cycles := func(c perf.Component) float64 { return float64(m.cycles[c]) / refKinstr }
	r.perLayer = []metric{
		{"machine.record.ns_per_kinstr", nsPerKinstr("machine.record"), "ns/kinstr"},
		{"machine.record.allocs_per_kinstr", ratio(float64(allocs("machine.record").allocs), passKinstr), "allocs/kinstr"},
		{"machine.record.bytes_per_kinstr", ratio(float64(allocs("machine.record").bytes), passKinstr), "B/kinstr"},
		{"perf.native_cycles_per_kinstr", float64(m.nativeCycles) / refKinstr, "cycles/kinstr"},
		{"perf.rec_driver_cycles_per_kinstr", cycles(perf.CompRecDriver), "cycles/kinstr"},
		{"perf.rec_input_copy_cycles_per_kinstr", cycles(perf.CompRecInputCopy), "cycles/kinstr"},
		{"perf.rec_cbuf_flush_cycles_per_kinstr", cycles(perf.CompRecCbufFlush), "cycles/kinstr"},
		{"perf.rec_sched_cycles_per_kinstr", cycles(perf.CompRecSched), "cycles/kinstr"},
		{"perf.rec_hardware_cycles_per_kinstr", cycles(perf.CompRecHardware), "cycles/kinstr"},
		{"mrr.chunks_per_kinstr", float64(m.chunks) / refKinstr, "chunks/kinstr"},
		{"capo.input_bytes_per_kinstr", float64(m.inputBytes) / refKinstr, "B/kinstr"},
		{"capo.syscalls_per_kinstr", float64(m.syscalls) / refKinstr, "syscalls/kinstr"},
		{"segment.framing_bytes_per_kinstr", float64(m.framingBytes) / refKinstr, "B/kinstr"},
		{"ingest.upload.p50_ms", percentile(durations("ingest.upload"), 50), "ms"},
		{"ingest.upload.p90_ms", percentile(durations("ingest.upload"), 90), "ms"},
		{"ingest.upload.mb_per_s", ratio(float64(t.uploadBytes)/1e6, total["ingest.upload"].Seconds()*f), "MB/s"},
		{"ingest.retries", float64(t.retries), "count"},
		{"ingest.shed", float64(e.srv.Counters().Shed - shed0), "count"},
		{"ingest.verify_wait.p50_ms", percentile(durations("ingest.verify_wait"), 50), "ms"},
		{"ingest.verify_wait.p90_ms", percentile(durations("ingest.verify_wait"), 90), "ms"},
		{"ingest.verify_queue_max", float64(t.queueMax), "count"},
		{"core.decode.ns_per_kinstr", nsPerKinstr("core.decode"), "ns/kinstr"},
		{"core.decode.allocs_per_call", ratio(float64(allocs("core.decode").allocs), float64(allocs("core.decode").calls)), "allocs/call"},
		{"replay.ns_per_kinstr", nsPerKinstr("replay"), "ns/kinstr"},
		{"replay.allocs_per_kinstr", ratio(float64(allocs("replay").allocs), passKinstr), "allocs/kinstr"},
		{"replay.verify.ns_per_kinstr", nsPerKinstr("replay.verify"), "ns/kinstr"},
		{"races.detect.ns_per_kinstr", nsPerKinstr("races.detect"), "ns/kinstr"},
		{"races.candidates_per_job", ratio(float64(t.candidates), float64(t.detects)), "candidates/job"},
		{"races.confirmed_ratio", ratio(float64(t.confirmed), float64(t.candidates)), "ratio"},
		{"fleet.replay.ns_per_kinstr", nsPerKinstr("fleet.replay"), "ns/kinstr"},
		{"fleet.interval_jobs_per_call", ratio(float64(t.intervalJobs), float64(t.fleetCalls)), "jobs/call"},
		{"fleet.ns_per_interval_job", ratio(float64(self["fleet.replay"].Nanoseconds())*f, float64(t.intervalJobs)), "ns/job"},
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, err
		}
		if err := writeChrome(f, r.spans); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return r, nil
}
