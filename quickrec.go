// Package quickrec is a full-system reproduction of "QuickRec:
// prototyping an Intel architecture extension for record and replay of
// multithreaded programs" (Pokam et al., ISCA 2013) as a Go library.
//
// The package records the execution of a multithreaded program running
// on a simulated multicore machine — chunk-based Memory Race Recorder
// hardware on every core, MESI-coherent caches on a snooping bus, and a
// Capo3-style kernel stack that logs all input nondeterminism — and
// replays the resulting logs deterministically, byte-for-byte.
//
// Quick start:
//
//	prog, _ := quickrec.BuildWorkload("radix", 4)
//	rec, _ := quickrec.Record(prog, quickrec.Options{Seed: 42})
//	rr, _ := quickrec.Replay(prog, rec)
//	if err := quickrec.Verify(rec, rr); err != nil { ... }
//
// Custom programs are written with the assembler Builder (see
// NewBuilder) against the simulated ISA; the workload catalogue
// (Workloads) carries the SPLASH-2-like evaluation suite from the paper.
package quickrec

import (
	"fmt"
	"io"

	"repro/internal/capo"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/qasm"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/segment"
	"repro/internal/workload"
)

// Re-exported building blocks for writing custom programs.
type (
	// Program is an executable image for the simulated machine.
	Program = isa.Program
	// Builder assembles Programs; see NewBuilder.
	Builder = isa.Builder
	// Reg names a machine register.
	Reg = isa.Reg
	// Memory is the simulated physical memory (used in Program
	// initializers).
	Memory = mem.Memory
	// Layout plans data-segment addresses at build time.
	Layout = mem.Layout
	// Recording is a complete replayable recording: per-thread chunk
	// logs, the input log, and the reference final state.
	Recording = core.Bundle
	// ReplayResult is the state replay reconstructed.
	ReplayResult = replay.Result
	// RunStats carries a run's measurements: cycles, per-component
	// overhead accounting, log volumes and chunk statistics.
	RunStats = machine.Result
)

// Register aliases for program authors. R1 receives the thread ID, R2
// the thread count, R29 a per-thread scratch base; RRet carries syscall
// numbers and results.
const (
	R0  = isa.R0
	R1  = isa.R1
	R2  = isa.R2
	R3  = isa.R3
	R4  = isa.R4
	R5  = isa.R5
	R6  = isa.R6
	R7  = isa.R7
	R8  = isa.R8
	R9  = isa.R9
	R28 = isa.R28
	R29 = isa.R29
	R30 = isa.R30
	R31 = isa.R31
	// RRet carries syscall numbers in and results out.
	RRet = isa.RRet
)

// Syscall numbers for custom programs.
const (
	SysExit      = capo.SysExit
	SysWrite     = capo.SysWrite
	SysRead      = capo.SysRead
	SysGetTime   = capo.SysGetTime
	SysRandom    = capo.SysRandom
	SysYield     = capo.SysYield
	SysFutexWait = capo.SysFutexWait
	SysFutexWake = capo.SysFutexWake
	SysGetTID    = capo.SysGetTID
)

// NewBuilder returns an assembler for a custom program.
func NewBuilder(name string) *Builder { return isa.NewBuilder(name) }

// ParseProgram assembles a program from qasm source text — the textual
// format documented in internal/qasm (directives .name/.threads/.alloc/
// .init, one instruction per line, plock/punlock/pbarrier pseudo-ops).
func ParseProgram(src string) (*Program, error) { return qasm.Parse(src) }

// Options configures recording and native runs. The zero value is a
// 4-core machine with scheduler seed 1 — the paper's prototype shape.
type Options struct {
	// Cores is the core count (default 4, the prototype's).
	Cores int
	// Threads overrides the program's default thread count (0 keeps it).
	Threads int
	// Seed drives scheduler nondeterminism; two runs with the same seed
	// interleave identically.
	Seed uint64
	// KernelSeed drives external-input nondeterminism (read data, time
	// jitter, entropy). Defaults to Seed+1.
	KernelSeed uint64
	// TimeSliceInstrs is the preemption quantum in retired instructions
	// (0 = the default; set when Threads > Cores).
	TimeSliceInstrs uint64
	// SignalPeriodInstrs delivers asynchronous signals about that often
	// (0 = never).
	SignalPeriodInstrs uint64
	// HardwareOnly charges only the recording hardware's cycle costs,
	// the paper's "negligible hardware overhead" configuration. Logs are
	// still complete and replayable.
	HardwareOnly bool
	// CheckpointEveryInstrs enables flight-recorder checkpoints roughly
	// every that many retired instructions (0 = never); see Tail.
	CheckpointEveryInstrs uint64
	// FlushEveryChunks is the segmented-stream flush cadence for
	// StreamRecord: logs are committed to the stream after that many new
	// chunks (0 = the default, 1024). Smaller values tighten the
	// crash-consistency window at the cost of framing overhead.
	FlushEveryChunks uint64
	// CaptureSignatures keeps each chunk's serialized read/write Bloom
	// signatures in the recording, enabling the offline race detector
	// (Races). Off by default: the signatures are an analysis artefact,
	// not part of the replay log, and are excluded from log-volume and
	// overhead accounting.
	CaptureSignatures bool
}

func (o Options) config(mode machine.RecordingMode) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Mode = mode
	if o.Cores > 0 {
		cfg.Cores = o.Cores
	}
	cfg.Threads = o.Threads
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.KernelSeed = o.KernelSeed
	if cfg.KernelSeed == 0 {
		cfg.KernelSeed = cfg.Seed + 1
	}
	if o.TimeSliceInstrs != 0 {
		cfg.TimeSliceInstrs = o.TimeSliceInstrs
	}
	cfg.SignalPeriodInstrs = o.SignalPeriodInstrs
	cfg.CheckpointEveryInstrs = o.CheckpointEveryInstrs
	cfg.FlushEveryChunks = o.FlushEveryChunks
	cfg.CaptureSignatures = o.CaptureSignatures
	return cfg
}

// WorkloadInfo describes one catalogue entry.
type WorkloadInfo struct {
	Name        string
	Kind        string // "splash" or "micro"
	Description string
}

// Workloads lists the evaluation suite: the SPLASH-2-like kernels the
// paper measures plus microbenchmarks isolating single behaviours.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, s := range workload.Suite() {
		out = append(out, WorkloadInfo{Name: s.Name, Kind: s.Kind, Description: s.Description})
	}
	return out
}

// BuildWorkload constructs a catalogue workload for the given thread
// count (1, 2, 4 and 8 are valid for every workload).
func BuildWorkload(name string, threads int) (*Program, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("quickrec: unknown workload %q (see Workloads())", name)
	}
	return spec.Build(threads), nil
}

// Record runs prog with recording enabled and returns the replayable
// recording. Recording.RecordStats carries the run's measurements.
func Record(prog *Program, opts Options) (*Recording, error) {
	mode := machine.ModeFull
	if opts.HardwareOnly {
		mode = machine.ModeHardwareOnly
	}
	return core.Record(prog, opts.config(mode))
}

// Native runs prog with recording off, for overhead baselines. The same
// Options (and Seed) produce the identical interleaving Record sees.
func Native(prog *Program, opts Options) (*RunStats, error) {
	return machine.New(prog, opts.config(machine.ModeOff)).Run()
}

// Replay re-executes a recording against the same program and returns
// the reconstructed state.
func Replay(prog *Program, rec *Recording) (*ReplayResult, error) {
	return core.Replay(prog, rec)
}

// ReplayParallel is Replay on a bounded worker pool: a recording made
// with Options.CheckpointEveryInstrs is partitioned at its checkpoints
// into independent intervals that replay concurrently, each validated
// against the next checkpoint's state (see docs/INTERNALS.md §12).
// workers 0 or 1 replays serially; negative selects
// runtime.GOMAXPROCS(0). The result is identical to serial Replay for
// every worker count; a recording without checkpoints replays serially
// regardless.
func ReplayParallel(prog *Program, rec *Recording, workers int) (*ReplayResult, error) {
	return core.ReplayWorkers(prog, rec, workers)
}

// Verify checks that a replay reproduced its recording exactly: final
// memory image, program output, per-thread instruction counts and
// architectural state.
func Verify(rec *Recording, rr *ReplayResult) error { return core.Verify(rec, rr) }

// RecordAndVerify is the end-to-end contract in one call.
func RecordAndVerify(prog *Program, opts Options) (*Recording, *ReplayResult, error) {
	rec, err := Record(prog, opts)
	if err != nil {
		return nil, nil, err
	}
	rr, err := Replay(prog, rec)
	if err != nil {
		return rec, nil, err
	}
	return rec, rr, Verify(rec, rr)
}

// LoadRecording parses a recording serialized with Recording.Marshal.
// The recording owns its memory; data may be discarded afterwards.
func LoadRecording(data []byte) (*Recording, error) { return core.UnmarshalBundle(data) }

// OpenRecording maps a recording file read-only and decodes it in
// place: logs and payloads alias the mapping, so nothing is copied.
// The returned close function unmaps the file; the recording must not
// be used after calling it.
func OpenRecording(path string) (*Recording, func() error, error) {
	return core.OpenBundleFile(new(core.BundleDecoder), path)
}

// PauseState is the machine state replay materialised at a breakpoint.
type PauseState = replay.PauseState

// ReplayUntil replays a recording up to "thread tid, retired-instruction
// count n" and returns the paused machine state — the primitive behind
// record-and-replay debugging: any moment of a recorded execution can be
// revisited deterministically.
func ReplayUntil(prog *Program, rec *Recording, tid int, n uint64) (*PauseState, error) {
	return core.ReplayUntil(prog, rec, tid, n)
}

// TraceEntry is one executed instruction of a traced thread.
type TraceEntry = replay.TraceEntry

// Trace replays a recording and captures thread tid's executed
// instruction stream over the retired-count window (from, to] —
// deterministic execution history for debugging.
func Trace(prog *Program, rec *Recording, tid int, from, to uint64) ([]TraceEntry, error) {
	return core.Trace(prog, rec, tid, from, to)
}

// ConformanceConfig parameterises a Conformance run; the zero value
// (filled with defaults) is the acceptance matrix run with seed 0 —
// every Seed value is honored as-is, zero included. Workload entries
// are catalogue names, or "fuzz-<seed>" for a generated program, the
// name its recordings carry. Faults selects among the ten fault classes
// (all by default): eight corrupt the serialized logs, and torn-write
// and stream-corrupt damage the segmented stream.
type ConformanceConfig = harness.Config

// ConformanceReport is a conformance run's findings: metamorphic
// property results and the per-(workload, cores, fault class) coverage
// cells. Report.OK() decides pass/fail; Report.String() renders the
// triage table.
type ConformanceReport = harness.Report

// Conformance runs the differential record/replay conformance matrix:
// metamorphic properties (record twice → identical bytes, replay
// reproduces the recorded state, recordings survive serialization,
// replay is deterministic) plus systematic single-fault corruption of
// the serialized logs and of the segmented stream, asserting every
// material fault is detected explicitly — at decode, replay or verify,
// or as a salvaged prefix that replays as one — and never accepted
// silently. The returned error covers misconfiguration only; detection
// findings live in the report. cmd/quickconform is the CLI face.
func Conformance(cfg ConformanceConfig) (*ConformanceReport, error) { return harness.Run(cfg) }

// RaceReport is the offline race detector's output: the screened
// candidate chunk pairs, the confirmed instruction-level races, and the
// signatures' measured false-positive rate.
type RaceReport = races.Report

// RaceCandidate is one signature-screened chunk pair.
type RaceCandidate = races.Candidate

// RaceFinding is one confirmed instruction-level data race: two
// accesses to the same address from different threads, at least one a
// write, with no happens-before path between them.
type RaceFinding = races.Race

// ErrNoSignatures reports a recording made without
// Options.CaptureSignatures to the race detector.
var ErrNoSignatures = races.ErrNoSignatures

// Races runs the offline two-phase data-race detector over a recording
// made with Options.CaptureSignatures. Phase one screens
// Lamport-concurrent chunk pairs through their Bloom signatures without
// re-executing anything; phase two replays the recording with access
// tracing and keeps only the conflicting access pairs no happens-before
// edge orders. Bloom filters admit false positives but never false
// negatives, so confirmation only shrinks the candidate set — see
// docs/INTERNALS.md §11.
func Races(prog *Program, rec *Recording) (*RaceReport, error) {
	return races.Detect(prog, rec)
}

// RacesParallel is Races with the screening, the traced replay (one
// checkpoint interval per task) and confirmation fanned out over a
// bounded worker pool (workers 0 or 1: serial, negative:
// runtime.GOMAXPROCS(0)). The report is identical to the serial
// detector's for every worker count.
func RacesParallel(prog *Program, rec *Recording, workers int) (*RaceReport, error) {
	return races.DetectWorkers(prog, rec, workers)
}

// FleetClient distributes replay and race detection across remote
// worker processes (quickrecd worker) attached to an ingest server's
// job broker. Client.Replay and Client.Races upload the recording to
// the server's content-addressed store once, then ship one job
// envelope per checkpoint interval naming it by digest (race detection
// screens and confirms on the client); results are bit-identical to the serial Replay and Races for any worker
// count, and a worker that dies or stalls mid-job only costs latency —
// its jobs are re-dispatched to surviving peers. See
// docs/INTERNALS.md §17.
type FleetClient = fleet.Client

// DialFleet attaches to a fleet server (quickrecd serve) as a job
// submitter. The returned client is also a dispatch executor; it is
// not safe for concurrent use.
func DialFleet(addr string) (*FleetClient, error) { return fleet.Dial(addr) }

// Tail derives the flight-recorder bundle from a recording made with
// Options.CheckpointEveryInstrs, fresh or loaded: the last checkpoint
// plus only the log entries after it. The tail replays and verifies to the same final
// state as the full recording, with bounded log volume — the mechanism
// behind always-on RnR.
func Tail(rec *Recording) (*Recording, error) { return core.Tail(rec) }

// StreamRecord records prog while streaming the session to w as a
// segmented, checksummed log stream (see docs/INTERNALS.md §10). The
// returned recording is the same one Record would produce; the stream is
// its crash-consistent twin — if the recorder dies mid-run, Salvage
// recovers a consistent, replayable prefix from whatever reached w.
func StreamRecord(prog *Program, opts Options, w io.Writer) (*Recording, error) {
	mode := machine.ModeFull
	if opts.HardwareOnly {
		mode = machine.ModeHardwareOnly
	}
	return core.StreamRecord(prog, opts.config(mode), w)
}

// Salvaged is a recording recovered from a (possibly damaged) segmented
// stream: the reconstructed Recording (Partial when the stream was
// torn), the salvage report, and — via Tail — the flight-recorder tail
// when a checkpoint survived.
type Salvaged = core.Salvaged

// SalvageReport describes what a salvage pass kept and why it stopped.
type SalvageReport = segment.Report

// Salvage scans a segmented stream written by StreamRecord (typically
// read back from disk after a crash), discards any torn or corrupt
// suffix, and reconstructs the longest consistent recording prefix. It
// errors only when no usable manifest exists; lesser damage yields a
// Partial recording whose replay stops where the logs run out
// (ReplayResult.Truncation says where) and which Verify rejects, since
// there is no reference final state to verify against.
func Salvage(data []byte) (*Salvaged, error) { return core.SalvageStream(data) }

// TruncatedReplay describes where a best-effort prefix replay of a
// Partial recording ran out of log.
type TruncatedReplay = replay.TruncatedReplay
