package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/workload"
)

// threads is the simulated thread count, one per simulated core of
// machine.DefaultConfig: the paper prototype's shape.
const threads = 4

// workloadSpec is one benchmark workload: the programs its job list
// cycles through, and whether a job records (record → upload → verdict)
// or analyzes a setup-time recording.
type workloadSpec struct {
	name     string
	programs []string
	analyze  bool
}

// workloads are the benchmark's workloads. record-splash is bound by the
// simulator, ingest-io by log bytes (capo input logging, segment framing,
// the wire codec and ingest), analyze by the read path (decode, replay,
// race detection, fleet dispatch) with no recording in the loop.
var workloads = []*workloadSpec{
	{
		name: "record-splash",
		programs: []string{"barnes", "cholesky", "fft", "fmm", "lu", "ocean", "radix",
			"radiosity", "raytrace", "volrend", "water"},
	},
	{
		name:     "ingest-io",
		programs: []string{"ioheavy", "kvserver", "reqserver", "sigserver"},
	},
	{
		name:     "analyze",
		programs: []string{"racy", "racefree", "radix", "fft", "barnes", "counter"},
		analyze:  true,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// job is one entry of a workload's job list.
type job struct {
	index   int
	program string
	seed    uint64 // scheduler seed; the kernel seed is seed+1
}

// Index offsets of job-list regions the timed loop never reaches, so
// their scheduler seeds, and hence their streams, are distinct from every
// timed job's: the ingest store would otherwise deduplicate them.
const (
	warmupBase  = 1 << 29
	serialBase  = 1 << 30
	fixtureBase = 3 << 29
)

// job returns entry i of the job list for seed: client i%clients's job in
// round i/clients. Each client's jobs form cycles, and each cycle visits
// every program once in its own seed-shuffled order, so every seed gets
// the same program mix every len(programs) rounds, while which programs
// meet in a round varies. Every entry has its own scheduler seed.
func (w *workloadSpec) job(seed uint64, i int) job {
	n := len(w.programs)
	round, c := i/clients, i%clients
	perm := rand.New(rand.NewPCG(seed, uint64(c)<<32|uint64(round/n))).Perm(n)
	return job{index: i, program: w.programs[perm[round%n]], seed: schedSeed(seed, i)}
}

// schedSeed derives job i's scheduler seed with splitmix64, a bijection,
// so distinct i give distinct seeds.
func schedSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// recordConfig is the recording configuration of every job: the
// prototype's four cores, one thread each, full recording stack.
func recordConfig(seed uint64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Threads = threads
	cfg.Mode = machine.ModeFull
	cfg.Seed, cfg.KernelSeed = seed, seed+1
	return cfg
}

// buildPrograms builds each named catalogue program once.
func buildPrograms(names []string) (map[string]*isa.Program, error) {
	progs := make(map[string]*isa.Program, len(names))
	for _, name := range names {
		p, err := workload.ProgramByName(name, threads)
		if err != nil {
			return nil, err
		}
		progs[name] = p
	}
	return progs, nil
}

// referenceSeed is the scheduler seed of the reference recordings. It is
// F1's default, so on record-splash rec_overhead_pct is the F1 SPLASH
// full-stack average at 4 threads.
const referenceSeed = 1

// model holds the modelled statistics of a workload's reference
// recordings: each program recorded once at referenceSeed. They are
// deterministic and independent of the benchmark seed, so any change in
// them is a change in the model, never noise.
type model struct {
	recordings   int
	overheadSum  float64 // sum of RecordingTotal/(Cycles-RecordingTotal)
	instrs       uint64
	streamBytes  uint64
	nativeCycles uint64
	cycles       [perf.NumComponents]uint64
	chunks       uint64
	inputBytes   uint64
	syscalls     uint64
	framingBytes uint64
	// stepSurplus is, per program, how many more steps a replay takes
	// than the recording retired instructions (REP iterations count as
	// steps). It is what a verdict's Steps is checked against.
	stepSurplus map[string]int64
}

// reference records each program at referenceSeed with a stream, runs it
// natively (ModeOff) on the same schedule, and checks that the modelled
// cycles minus the recording cycles equal the native cycles: recording
// adds cost without changing the execution. It replays and verifies each
// recording once to learn its step surplus.
func reference(names []string, progs map[string]*isa.Program) (*model, error) {
	m := &model{stepSurplus: make(map[string]int64)}
	for _, name := range names {
		prog := progs[name]
		cfg := recordConfig(referenceSeed)
		var stream bytes.Buffer
		b, err := core.StreamRecord(prog, cfg, &stream)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		cfg.Mode = machine.ModeOff
		native, err := machine.New(prog, cfg).Run()
		if err != nil {
			return nil, fmt.Errorf("reference %s native: %w", name, err)
		}
		r := b.RecordStats
		rec := r.Acct.RecordingTotal()
		if r.Cycles-rec != native.Cycles {
			return nil, fmt.Errorf("reference %s: recorded cycles %d minus recording cycles %d != native cycles %d",
				name, r.Cycles, rec, native.Cycles)
		}
		rr, err := core.Replay(prog, b)
		if err == nil {
			err = core.Verify(b, rr)
		}
		if err != nil {
			return nil, fmt.Errorf("reference %s replay: %w", name, err)
		}
		m.stepSurplus[name] = int64(rr.Steps) - int64(r.Retired)
		m.recordings++
		m.overheadSum += float64(rec) / float64(native.Cycles)
		m.instrs += r.Retired
		m.streamBytes += uint64(stream.Len())
		m.nativeCycles += native.Cycles
		for c := perf.Component(0); c < perf.NumComponents; c++ {
			m.cycles[c] += r.Acct.Get(c)
		}
		for _, s := range r.MRRStats {
			m.chunks += s.Chunks
		}
		m.inputBytes += r.Session.InputBytes()
		m.syscalls += r.Syscalls
		m.framingBytes += r.StreamFramingBytes
	}
	return m, nil
}

// fixture is one analyze recording: captured with signatures (for race
// screening) and checkpoints (for interval-parallel and fleet replay).
type fixture struct {
	prog   *isa.Program
	data   []byte // the marshaled bundle each job decodes
	instrs uint64
	expect string // workload.Spec.RaceExpectation
}

// fixtureCheckpointEvery is the analyze recordings' checkpoint cadence in
// retired instructions.
const fixtureCheckpointEvery = 20000

func recordFixtures(w *workloadSpec, seed uint64, progs map[string]*isa.Program) (map[string]*fixture, error) {
	fx := make(map[string]*fixture, len(w.programs))
	for k, name := range w.programs {
		cfg := recordConfig(schedSeed(seed, fixtureBase+k))
		cfg.CaptureSignatures = true
		cfg.CheckpointEveryInstrs = fixtureCheckpointEvery
		b, err := core.Record(progs[name], cfg)
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %w", name, err)
		}
		spec, _ := workload.ByName(name)
		fx[name] = &fixture{prog: progs[name], data: b.Marshal(), instrs: b.RecordStats.Retired,
			expect: spec.RaceExpectation}
	}
	return fx, nil
}
