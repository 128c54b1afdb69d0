// Package machine assembles the QuickRec prototype: simulated cores
// executing a program through private MESI caches on a snooping bus,
// with a Memory Race Recorder per core and the Capo3 kernel stack
// managing threads, syscalls, signals and recording sessions.
//
// The machine is a deterministic discrete-event simulator: cores advance
// one at a time in bursts chosen by a seeded scheduler, so a given
// (program, config, seed) triple always produces the same execution —
// which lets experiments compare native and recorded runs of the *same*
// interleaving — while different seeds exercise different thread
// interleavings, the nondeterminism RnR exists to capture.
package machine

import (
	"io"

	"repro/internal/cache"
	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mrr"
	"repro/internal/perf"
	"repro/internal/segment"
)

// RecordingMode selects how much of QuickRec is active.
type RecordingMode int

// Recording modes.
const (
	// ModeOff runs natively: no recording hardware, no RSM.
	ModeOff RecordingMode = iota
	// ModeHardwareOnly runs the MRR and collects logs, charging only the
	// hardware's cycle costs — the paper's "recording hardware has
	// negligible overhead" configuration.
	ModeHardwareOnly
	// ModeFull runs the complete stack: MRR plus Capo3 software costs
	// (driver crossings, input copying, CBUF flushes).
	ModeFull
)

// String names the mode.
func (m RecordingMode) String() string {
	switch m {
	case ModeOff:
		return "native"
	case ModeHardwareOnly:
		return "hw-only"
	case ModeFull:
		return "full"
	}
	return "unknown"
}

// Config parameterises a machine.
type Config struct {
	// Cores is the number of cores (the prototype had 4).
	Cores int
	// Threads is the number of threads to spawn; 0 means the program's
	// default. Threads beyond Cores are time-multiplexed.
	Threads int
	// Cache configures each core's private cache.
	Cache cache.Config
	// MRR configures each core's recorder.
	MRR mrr.Config
	// Perf holds the cycle-cost model.
	Perf perf.Params
	// Mode selects recording behaviour.
	Mode RecordingMode
	// Seed drives scheduler nondeterminism (burst choice, preemption
	// victims, signal targets).
	Seed uint64
	// KernelSeed drives external-input nondeterminism (read data, time
	// jitter, entropy).
	KernelSeed uint64
	// TimeSliceInstrs is the preemption quantum in retired instructions
	// per core (instruction-based so all recording modes see identical
	// schedules). 0 disables preemption.
	TimeSliceInstrs uint64
	// SignalPeriodInstrs delivers an asynchronous signal roughly every
	// this many globally retired instructions, if the program registered
	// a handler. 0 disables signals.
	SignalPeriodInstrs uint64
	// BurstMax bounds the instructions a core runs per scheduling turn.
	BurstMax int
	// MaxSteps aborts runaway programs (0 = a large default).
	MaxSteps uint64
	// CheckpointEveryInstrs takes a flight-recorder checkpoint roughly
	// every that many globally retired instructions (0 = never). Only
	// meaningful when recording.
	CheckpointEveryInstrs uint64
	// CbufBytes sizes the per-thread kernel log buffers.
	CbufBytes int
	// StackWordsPerThread sizes each thread's scratch region.
	StackWordsPerThread uint64
	// StreamTo, when non-nil and recording, streams the session
	// incrementally as a segmented, checksummed stream (see
	// internal/segment): a writer that dies mid-run leaves a salvageable
	// prefix behind instead of nothing. A run that ends in an error
	// writes no final segment, so what it left salvages as a torn
	// recording. Underlying write errors are sticky and surface once,
	// from Run.
	StreamTo io.Writer
	// FlushEveryChunks is the streaming flush cadence: an epoch (commit +
	// data batches) is emitted once this many chunk entries accumulate.
	// Flushes also happen at checkpoint boundaries and at run end.
	// 0 means the default (1024, which keeps steady-state framing
	// overhead under 5% of log payload; see experiment A6). Smaller
	// values tighten the crash-consistency window at the cost of framing.
	FlushEveryChunks uint64
	// CaptureSignatures retains each chunk's serialized read/write Bloom
	// signatures alongside the chunk log, for offline conflict screening
	// (the race detector). Off by default: the captured bytes are an
	// analysis artefact, deliberately outside the log stream and its CBUF
	// and perf accounting.
	CaptureSignatures bool
}

// DefaultConfig mirrors the prototype: four Pentium-class cores with
// 32 KiB caches and the default MRR.
func DefaultConfig() Config {
	return Config{
		Cores:               4,
		Cache:               cache.DefaultConfig(),
		MRR:                 mrr.DefaultConfig(),
		Perf:                perf.DefaultParams(),
		Mode:                ModeOff,
		Seed:                1,
		KernelSeed:          1,
		TimeSliceInstrs:     200_000,
		BurstMax:            32,
		MaxSteps:            2_000_000_000,
		CbufBytes:           16 << 10,
		StackWordsPerThread: 1024,
	}
}

// threadState is a thread's scheduling state.
type threadState int

const (
	thRunnable threadState = iota
	thRunning
	thBlocked
	thExited
)

// thread is the kernel's view of one program thread.
type thread struct {
	id         int
	state      threadState
	ctx        isa.Context
	savedClock uint64
	core       int // core index while running, else -1
	sigMasked  bool
	// Signal frame: the kernel saves the full register file and PC at
	// delivery; SysSigReturn restores them atomically (as sigreturn(2)
	// does), so handlers are fully transparent to interrupted code.
	sigRegs [isa.NumRegs]uint64
	sigPC   int
	// sliceInstrs counts retired instructions since the thread was
	// scheduled, for instruction-based preemption.
	sliceInstrs uint64
	finalCtx    isa.Context
}

// Result summarises a completed run.
type Result struct {
	// Cycles is the modelled execution time.
	Cycles uint64
	// Acct is the per-component cycle breakdown.
	Acct perf.Accounting
	// Retired is the total retired instruction count across threads.
	Retired uint64
	// RetiredPerThread is each thread's retired count.
	RetiredPerThread []uint64
	// Output is what the program wrote to fd 1.
	Output []byte
	// MemChecksum hashes the final memory image (after cache flush).
	MemChecksum uint64
	// FinalContexts holds each thread's architectural state at exit.
	FinalContexts []isa.Context
	// Session is the recording session (nil in ModeOff).
	Session *capo.Session
	// MRRStats aggregates recorder statistics per core (nil in ModeOff).
	MRRStats []*mrr.Stats
	// CacheStats and BusStats describe memory-system activity.
	CacheStats []cache.Stats
	BusStats   cache.BusStats
	// Syscalls counts completed system calls.
	Syscalls uint64
	// CtxSwitches counts involuntary context switches.
	CtxSwitches uint64
	// SignalsDelivered counts asynchronous signals delivered.
	SignalsDelivered uint64
	// MemAccesses counts data-memory accesses (loads + stores).
	MemAccesses uint64
	// Checkpoints holds every flight-recorder checkpoint taken, in
	// order (none unless Config.CheckpointEveryInstrs was set and a
	// boundary was crossed). Interval-partitioned parallel replay uses
	// them as split points, and the last one starts a tail replay.
	Checkpoints []*capo.Checkpoint
	// StreamSegments/StreamBytes/StreamFramingBytes describe the
	// segmented stream written to Config.StreamTo (zero when not
	// streaming). FramingBytes is the streaming-only overhead: segment
	// headers, checksums, and commit payloads.
	StreamSegments     int
	StreamBytes        uint64
	StreamFramingBytes uint64
}

// Machine is a configured simulation instance. Create with New, run once
// with Run.
type Machine struct {
	cfg  Config
	prog *isa.Program

	memory  *mem.Memory
	bus     *cache.Bus
	caches  []*cache.Cache
	ports   []*corePort
	cores   []*isa.Core
	mrrs    []*mrr.Recorder
	kernel  *capo.Kernel
	session *capo.Session

	threads  []*thread
	runq     []int // runnable thread IDs, FIFO
	running  []int // thread ID per core, -1 if idle
	liveCnt  int
	acct     perf.Accounting
	rng      uint64
	retired  uint64 // global retired instructions
	steps    uint64
	syscalls uint64
	switches uint64
	signals  uint64
	nextSig  uint64
	// lastWriteTS orders write syscalls across threads: the kernel's
	// output stream is a shared object, so successive writes carry
	// strictly increasing timestamps.
	lastWriteTS uint64
	nextCkpt    uint64
	checkpoints []*capo.Checkpoint
	ran         bool

	// coreBuf backs the core lists activeCores and deliverSignal
	// build; neither list is used after its caller picks a core.
	coreBuf []int
	// chunkSinks and sigSinks hold each thread's recorder sinks, built
	// once so a context switch only installs them.
	chunkSinks []func(chunk.Entry)
	sigSinks   []func(read, write []byte)

	// Streaming state (nil/zero unless Config.StreamTo is set).
	stream           *segment.Writer
	streamEpoch      uint64
	pendingChunks    uint64
	streamedChunkPos []int
	streamedInputPos int
}

// corePort wires a core's memory traffic through its cache and charges
// memory-stall cycles.
type corePort struct {
	c        *cache.Cache
	m        *Machine
	accesses uint64
}

func (p *corePort) charge(cost cache.Cost) {
	p.accesses++
	pp := &p.m.cfg.Perf
	var cycles uint64
	switch cost {
	case cache.CostHit:
		cycles = pp.HitCost
	case cache.CostUpgrade:
		cycles = pp.UpgradeCost
	case cache.CostMissMem:
		cycles = pp.MissMemCost
	case cache.CostMissC2C:
		cycles = pp.MissC2CCost
	}
	p.m.acct.Add(perf.CompMem, cycles)
}

// Load implements isa.MemPort and capo.CopyPort.
func (p *corePort) Load(addr uint64) uint64 {
	v, cost := p.c.Load(addr)
	p.charge(cost)
	return v
}

// Store implements isa.MemPort and capo.CopyPort.
func (p *corePort) Store(addr uint64, val uint64) {
	p.charge(p.c.Store(addr, val))
}

// RMW implements isa.MemPort.
func (p *corePort) RMW(addr uint64, op isa.RMWOp) uint64 {
	v, cost := p.c.RMW(addr, op.Apply)
	p.charge(cost)
	return v
}

// New builds a machine for prog under cfg.
func New(prog *isa.Program, cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic("machine: need at least one core")
	}
	if cfg.BurstMax <= 0 {
		cfg.BurstMax = 32
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2_000_000_000
	}
	if cfg.Threads == 0 {
		cfg.Threads = prog.DefaultThreads
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.CbufBytes <= 0 {
		cfg.CbufBytes = 16 << 10
	}
	if cfg.StackWordsPerThread == 0 {
		cfg.StackWordsPerThread = 1024
	}

	memBytes := prog.MemBytes
	stackBytes := cfg.StackWordsPerThread * 8 * uint64(cfg.Threads)
	memory := mem.New(memBytes + stackBytes + 4096)
	m := &Machine{
		cfg:    cfg,
		prog:   prog,
		memory: memory,
		kernel: capo.NewKernel(cfg.KernelSeed, memory.Size()),
		rng:    cfg.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
	}
	m.bus = cache.NewBus(m.memory)

	recording := cfg.Mode != ModeOff
	for i := 0; i < cfg.Cores; i++ {
		var listener cache.Listener
		var rec *mrr.Recorder
		if recording {
			rec = mrr.New(cfg.MRR)
			listener = rec
		} else {
			listener = cache.NopListener{}
		}
		c := cache.New(cfg.Cache, m.bus, listener)
		port := &corePort{c: c, m: m}
		core := isa.NewCore(i, prog, port)
		if rec != nil {
			rec.SetResidueFunc(core.RepInFlight)
		}
		m.caches = append(m.caches, c)
		m.ports = append(m.ports, port)
		m.cores = append(m.cores, core)
		m.mrrs = append(m.mrrs, rec)
		m.running = append(m.running, -1)
	}
	if recording {
		m.session = capo.NewSession(
			capo.SessionConfig{Threads: cfg.Threads, CbufBytes: cfg.CbufBytes},
			m.onCbufFlush)
		m.chunkSinks = make([]func(chunk.Entry), cfg.Threads)
		for t := range m.chunkSinks {
			sink := m.session.ChunkSink(t)
			m.chunkSinks[t] = func(e chunk.Entry) {
				m.acct.Add(perf.CompRecHardware, m.cfg.Perf.RecChunkWrite)
				sink(e)
				m.noteStreamedChunk()
			}
		}
		if cfg.CaptureSignatures {
			m.sigSinks = make([]func(read, write []byte), cfg.Threads)
			for t := range m.sigSinks {
				m.sigSinks[t] = m.session.SigSink(t)
			}
		}
	}

	// Lay out the program image, then per-thread stacks beyond it.
	prog.Init(m.memory)
	m.memory.Reserve(prog.MemBytes)
	stackBase := make([]uint64, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		stackBase[t] = m.memory.Alloc(cfg.StackWordsPerThread * 8)
	}

	for t := 0; t < cfg.Threads; t++ {
		th := &thread{id: t, state: thRunnable, core: -1}
		th.ctx.Regs[isa.R1] = uint64(t)
		th.ctx.Regs[isa.R2] = uint64(cfg.Threads)
		th.ctx.Regs[isa.R29] = stackBase[t]
		m.threads = append(m.threads, th)
		m.runq = append(m.runq, t)
	}
	m.liveCnt = cfg.Threads
	m.nextSig = cfg.SignalPeriodInstrs
	m.nextCkpt = cfg.CheckpointEveryInstrs
	if cfg.StreamTo != nil && recording {
		if m.cfg.FlushEveryChunks == 0 {
			m.cfg.FlushEveryChunks = 1024
		}
		m.initStream()
	}
	return m
}

// rand64 is the machine's xorshift64 scheduling PRNG.
func (m *Machine) rand64() uint64 {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	return m.rng
}

func (m *Machine) recording() bool { return m.cfg.Mode != ModeOff }

// chargeFull adds cycles to comp only when the full software stack is
// modelled.
func (m *Machine) chargeFull(comp perf.Component, cycles uint64) {
	if m.cfg.Mode == ModeFull {
		m.acct.Add(comp, cycles)
	}
}

// onCbufFlush charges a CBUF drain. Threads fill their input CBUFs
// without entering the RSM driver (handleSyscall), so draining one
// crosses into it.
func (m *Machine) onCbufFlush(kind capo.FlushKind) {
	m.chargeFull(perf.CompRecCbufFlush, m.cfg.Perf.RecCbufFlush)
	if kind == capo.FlushInput {
		m.chargeFull(perf.CompRecDriver, m.cfg.Perf.RecSyscallExtra)
	}
}

// Kernel exposes the simulated OS (for tests and the CLI).
func (m *Machine) Kernel() *capo.Kernel { return m.kernel }

// Session exposes the recording session (nil in ModeOff).
func (m *Machine) Session() *capo.Session { return m.session }
