// Package core ties the QuickRec pieces into the system the paper
// presents: record a multithreaded program's execution on the simulated
// prototype (MRR hardware + Capo3 software stack), package the logs as a
// replayable bundle, replay it deterministically, and verify that the
// replayed execution reproduces the recorded one exactly.
package core

import (
	"bytes"
	"fmt"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replay"
)

// Bundle is a complete recording: everything replay needs, plus the
// reference final state used for verification.
type Bundle struct {
	// ProgramName names the recorded program; replay must be given the
	// same binary (QuickRec logs inputs and races, not code).
	ProgramName string
	// Threads is the recorded thread count.
	Threads int
	// StackWordsPerThread reproduces the recorder's address-space layout.
	StackWordsPerThread uint64
	// ChunkLogs holds the per-thread memory-interleaving logs.
	ChunkLogs []*chunk.Log
	// InputLog holds all recorded input nondeterminism.
	InputLog *capo.InputLog
	// SigLogs, when non-nil, holds each chunk's serialized read/write
	// Bloom signatures (per thread, parallel to ChunkLogs). Captured only
	// when the recording ran with machine.Config.CaptureSignatures; used
	// by the offline race detector's screening phase.
	SigLogs [][]capo.SigPair
	// Checkpoint, when non-nil, marks this as a flight-recorder tail
	// bundle: the logs cover only execution after the checkpoint and
	// replay resumes from its snapshot. Built with Tail.
	Checkpoint *capo.Snapshot
	// IntervalCheckpoints holds every flight-recorder checkpoint taken
	// during the recording, in order. Present only on full bundles
	// recorded with CheckpointEveryInstrs (and on salvaged bundles whose
	// checkpoints survived the cut); parallel replay partitions the logs
	// at these points.
	IntervalCheckpoints []*capo.Checkpoint
	// CountRepIterations records the hardware's counting convention
	// (chunk sizes include REP iterations); the replayer must mirror it.
	CountRepIterations bool
	// Partial marks a salvaged recording prefix: the logs are a validated,
	// causally closed prefix of the original execution, but the reference
	// final state is missing (the recorder died before writing it). Replay
	// runs best-effort (Result.Truncation describes where the logs ran
	// out); Verify rejects partial bundles since there is nothing to
	// verify against.
	Partial bool

	// Reference state captured at the end of the recorded run.
	MemChecksum      uint64
	Output           []byte
	FinalContexts    []isa.Context
	RetiredPerThread []uint64

	// Format selects the byte format Marshal emits (see Format). It is
	// runtime-only state, not a serialized field: decoding stamps the
	// source's format here so a decoded bundle re-encodes identically,
	// and a fresh recording's zero value lets the encoder choose.
	Format Format

	// RecordStats carries the recording run's measurements (overheads,
	// log volumes, chunk statistics). Not serialized.
	RecordStats *machine.Result
}

// Record runs prog under cfg with recording enabled and returns the
// bundle. If cfg.Mode is ModeOff it is promoted to ModeFull; callers that
// want hardware-only accounting can pass ModeHardwareOnly explicitly
// (logs are still complete).
func Record(prog *isa.Program, cfg machine.Config) (*Bundle, error) {
	if cfg.Mode == machine.ModeOff {
		cfg.Mode = machine.ModeFull
	}
	m := machine.New(prog, cfg)
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("core: recording failed: %w", err)
	}
	if cfg.StackWordsPerThread == 0 {
		cfg.StackWordsPerThread = machine.DefaultConfig().StackWordsPerThread
	}
	threads := len(res.RetiredPerThread)
	b := &Bundle{
		ProgramName:         prog.Name,
		Threads:             threads,
		StackWordsPerThread: cfg.StackWordsPerThread,
		CountRepIterations:  cfg.MRR.CountRepIterations,
		ChunkLogs:           res.Session.ChunkLogs(),
		InputLog:            res.Session.InputLog(),
		SigLogs:             res.Session.SigLogs(),
		MemChecksum:         res.MemChecksum,
		Output:              res.Output,
		FinalContexts:       res.FinalContexts,
		RetiredPerThread:    res.RetiredPerThread,
		IntervalCheckpoints: res.Checkpoints,
		RecordStats:         res,
	}
	return b, nil
}

// Replay re-executes the bundle against prog and returns the replayed
// state. It does not verify; use Verify or RecordAndVerify for that.
func Replay(prog *isa.Program, b *Bundle) (*replay.Result, error) {
	return ReplayWorkers(prog, b, 0)
}

// ReplayBounded replays the bundle serially under a step budget — the
// harness's guard when triaging salvaged (possibly damaged) recordings
// that could otherwise run away.
func ReplayBounded(prog *isa.Program, b *Bundle, maxSteps uint64) (*replay.Result, error) {
	in, err := ReplayInput(prog, b)
	if err != nil {
		return nil, err
	}
	in.MaxSteps = maxSteps
	return replay.Run(in)
}

// ReplayWorkers replays the bundle with a bounded worker pool: when
// workers resolves to at least 2 and the bundle carries interval
// checkpoints, the logs are partitioned at the checkpoints and the
// intervals replay concurrently. 0 and 1 replay serially; negative
// selects runtime.GOMAXPROCS(0). The Result is bit-identical to serial
// replay in every mode.
func ReplayWorkers(prog *isa.Program, b *Bundle, workers int) (*replay.Result, error) {
	in, err := ReplayInput(prog, b)
	if err != nil {
		return nil, err
	}
	in.Workers = workers
	return replay.Run(in)
}

// ReplayDistributed replays the bundle with the interval jobs dispatched
// through an executor — a fleet executor ships them to remote worker
// processes that hold the same bundle under the given content digest.
// The Result is bit-identical to Replay: the interval partition is a
// pure function of the bundle, and the stitcher is index-ordered.
func ReplayDistributed(prog *isa.Program, b *Bundle, exec dispatch.Executor, digest string) (*replay.Result, error) {
	in, err := ReplayInput(prog, b)
	if err != nil {
		return nil, err
	}
	in.Exec = exec
	in.Digest = digest
	return replay.Run(in)
}

// ReplayInput builds the replayer's input from a bundle, wiring the
// checkpoint start state, the interval checkpoints and the counting
// convention — for callers that drive the replay package directly, such
// as the race detector's traced interval replays and a fleet worker's
// interval jobs.
func ReplayInput(prog *isa.Program, b *Bundle) (replay.Input, error) {
	in := replay.Input{
		Prog:                prog,
		Threads:             b.Threads,
		ChunkLogs:           b.ChunkLogs,
		InputLog:            b.InputLog,
		StackWordsPerThread: b.StackWordsPerThread,
		CountRepIterations:  b.CountRepIterations,
		AllowTruncated:      b.Partial,
		Start:               b.Checkpoint,
		Checkpoints:         b.IntervalCheckpoints,
	}
	if prog.Name != b.ProgramName {
		return in, fmt.Errorf("core: bundle was recorded from %q, not %q", b.ProgramName, prog.Name)
	}
	return in, nil
}

// ReplayUntil replays the bundle up to "thread tid, retired-instruction
// count n" and returns the paused machine state — the primitive behind
// record-and-replay debugging. Works on full and flight-recorder tail
// bundles (the breakpoint must not predate a tail's checkpoint).
func ReplayUntil(prog *isa.Program, b *Bundle, tid int, n uint64) (*replay.PauseState, error) {
	in, err := ReplayInput(prog, b)
	if err != nil {
		return nil, err
	}
	return replay.RunUntil(in, replay.Breakpoint{Thread: tid, Retired: n})
}

// Trace replays the bundle and captures thread tid's executed
// instruction stream over the retired-count window (from, to].
func Trace(prog *isa.Program, b *Bundle, tid int, from, to uint64) ([]replay.TraceEntry, error) {
	in, err := ReplayInput(prog, b)
	if err != nil {
		return nil, err
	}
	return replay.Trace(in, tid, from, to)
}

// VerifyError describes a mismatch between the recorded and replayed
// executions.
type VerifyError struct {
	Field  string
	Detail string
}

// Error implements error.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("core: replay verification failed: %s: %s", e.Field, e.Detail)
}

// Verify checks that the replayed execution reproduced the recording:
// identical final memory image, program output, per-thread retired
// counts, and per-thread architectural state.
func Verify(b *Bundle, rr *replay.Result) error {
	if b.Partial {
		return &VerifyError{"bundle", "salvaged partial recording carries no reference final state"}
	}
	if rr.MemChecksum != b.MemChecksum {
		return &VerifyError{"memory", fmt.Sprintf("checksum %#x != recorded %#x", rr.MemChecksum, b.MemChecksum)}
	}
	if !bytes.Equal(rr.Output, b.Output) {
		return &VerifyError{"output", fmt.Sprintf("%d bytes != recorded %d bytes", len(rr.Output), len(b.Output))}
	}
	if len(rr.RetiredPerThread) != len(b.RetiredPerThread) {
		return &VerifyError{"threads", fmt.Sprintf("%d != recorded %d", len(rr.RetiredPerThread), len(b.RetiredPerThread))}
	}
	for t := range b.RetiredPerThread {
		if rr.RetiredPerThread[t] != b.RetiredPerThread[t] {
			return &VerifyError{"retired", fmt.Sprintf("thread %d: %d != recorded %d",
				t, rr.RetiredPerThread[t], b.RetiredPerThread[t])}
		}
	}
	for t := range b.FinalContexts {
		rec, rep := b.FinalContexts[t], rr.FinalContexts[t]
		if rec.PC != rep.PC {
			return &VerifyError{"context", fmt.Sprintf("thread %d PC %d != recorded %d", t, rep.PC, rec.PC)}
		}
		for r := 0; r < isa.NumRegs; r++ {
			if rec.Regs[r] != rep.Regs[r] {
				return &VerifyError{"context", fmt.Sprintf("thread %d r%d = %#x != recorded %#x",
					t, r, rep.Regs[r], rec.Regs[r])}
			}
		}
	}
	return nil
}

// RecordAndVerify records prog, replays the bundle, and verifies the
// round trip — the system's end-to-end contract.
func RecordAndVerify(prog *isa.Program, cfg machine.Config) (*Bundle, *replay.Result, error) {
	b, err := Record(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	rr, err := Replay(prog, b)
	if err != nil {
		return b, nil, err
	}
	if err := Verify(b, rr); err != nil {
		return b, rr, err
	}
	return b, rr, nil
}
