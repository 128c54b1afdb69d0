package replay

// Parallel interval replay: a recording made with flight-recorder
// checkpoints is an exact partition of every per-thread log at the
// checkpoint positions, and each checkpoint carries the complete machine
// state at its boundary. Every interval can therefore be replayed
// independently — interval k starts from checkpoint k-1's state and
// consumes only the log slice [pos(k-1), pos(k)) — and the results are
// deterministic by construction: within an interval the replayer follows
// the same global (TS, thread) order serial replay would, and the
// partition points are instruction boundaries (chunks are terminated
// before a checkpoint is taken), so no work item is split, re-executed,
// or skipped.
//
// Validation replaces continuity: instead of flowing state from interval
// k into interval k+1, the engine checks that interval k's final state
// (contexts, exit flags, signal frames, handler registration, fd-1
// output, memory image) equals checkpoint k's recorded state. A
// mismatch is reported as a *BoundaryError naming the interval and — for
// per-thread state — the thread and absolute chunk index.

import (
	"bytes"
	"fmt"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/mem"
)

// BoundaryError reports that a replayed interval's final machine state
// does not match the checkpoint that opens the next interval: the
// recording's logs and its checkpoint snapshots disagree.
type BoundaryError struct {
	// Interval is the 0-based interval whose end state mismatched.
	Interval int
	// Thread names the mismatched thread, or -1 for whole-machine state
	// (memory image, output stream, signal handler).
	Thread int
	// Chunk is the absolute chunk-log index the thread had completed
	// through when it reached the boundary; -1 when no chunk context
	// applies.
	Chunk  int
	Reason string
}

// Error implements error.
func (e *BoundaryError) Error() string {
	if e.Thread >= 0 {
		return fmt.Sprintf("replay: interval %d boundary mismatch on thread %d (chunk %d): %s",
			e.Interval, e.Thread, e.Chunk, e.Reason)
	}
	return fmt.Sprintf("replay: interval %d boundary mismatch: %s", e.Interval, e.Reason)
}

// interval is one independently replayable slice of the recording.
type interval struct {
	index int
	start *capo.Snapshot // nil: the program's initial state
	// end is the next checkpoint's snapshot, which an interior interval
	// must reach exactly (nil for the last interval). Its memory image
	// is compared lazily, word for word, by the one interval that
	// validates against it: partitioning must stay cheap because remote
	// workers re-derive the partition per job. Concurrent reads are
	// safe, since interval replays copy their start image instead of
	// mutating a checkpoint's.
	end       *capo.Snapshot
	chunkLogs []*chunk.Log
	inputLog  *capo.InputLog
	chunkBase []int
}

// partition splits the input at its usable checkpoints. It returns nil
// (caller replays serially) unless parallel replay applies: Workers must
// resolve to at least 2 and at least one checkpoint must survive
// validation. Start may be non-nil: interval 0 then starts from Start
// instead of the program's initial state. A checkpoint whose positions
// equal the previous cut's is skipped as non-advancing. Checkpoints
// with missing state or with log positions that are non-monotonic or
// beyond the logs (a salvaged prefix cut them off) are skipped, so
// truncation always lands in the final interval.
func partition(in Input) []*interval {
	// A remote executor always partitions (the interval list is the job
	// list); local replay partitions only when Workers asks for it.
	if in.Exec == nil && dispatch.Resolve(in.Workers) < 2 {
		return nil
	}
	return partitionCuts(in)
}

// partitionCuts is partition without the worker-count gate: the pure
// function of the Input that both the dispatching side and a remote
// worker evaluate, so they agree on the interval list by construction.
func partitionCuts(in Input) []*interval {
	if len(in.Checkpoints) == 0 || in.InputLog == nil {
		return nil
	}
	prevChunk := make([]int, in.Threads)
	prevInput := 0
	var cuts []*capo.Checkpoint
	for _, ck := range in.Checkpoints {
		if !usableCut(ck, in, prevChunk, prevInput) {
			continue
		}
		cuts = append(cuts, ck)
		copy(prevChunk, ck.ChunkPos)
		prevInput = ck.InputPos
	}
	if len(cuts) == 0 {
		return nil
	}

	ivs := make([]*interval, 0, len(cuts)+1)
	base := make([]int, in.Threads) // current cut's chunk positions
	baseInput := 0
	start := in.Start // nil: the program's initial state
	for k := 0; k <= len(cuts); k++ {
		iv := &interval{
			index:     k,
			start:     start,
			chunkBase: append([]int(nil), base...),
		}
		nextChunk := make([]int, in.Threads)
		nextInput := 0
		if k < len(cuts) {
			copy(nextChunk, cuts[k].ChunkPos)
			nextInput = cuts[k].InputPos
		} else {
			for t := 0; t < in.Threads; t++ {
				nextChunk[t] = in.ChunkLogs[t].Len()
			}
			nextInput = in.InputLog.Len()
		}
		for t := 0; t < in.Threads; t++ {
			iv.chunkLogs = append(iv.chunkLogs, &chunk.Log{
				Thread:  t,
				Entries: in.ChunkLogs[t].Entries[base[t]:nextChunk[t]],
			})
		}
		iv.inputLog = &capo.InputLog{Records: in.InputLog.Records[baseInput:nextInput]}
		if k < len(cuts) {
			iv.end = &cuts[k].Snapshot
			start = iv.end
			copy(base, cuts[k].ChunkPos)
			baseInput = cuts[k].InputPos
		}
		ivs = append(ivs, iv)
	}
	return ivs
}

// usableCut reports whether a checkpoint can partition the logs: its
// snapshot must be shaped for the thread count and its log positions
// must be monotonic from the previous cut and within the logs.
func usableCut(ck *capo.Checkpoint, in Input, prevChunk []int, prevInput int) bool {
	if ck.Check(in.Threads) != nil || len(ck.ChunkPos) != in.Threads {
		return false
	}
	advanced := false
	for t, pos := range ck.ChunkPos {
		if pos < prevChunk[t] || pos > in.ChunkLogs[t].Len() {
			return false
		}
		if pos > prevChunk[t] {
			advanced = true
		}
	}
	if ck.InputPos < prevInput || ck.InputPos > in.InputLog.Len() {
		return false
	}
	// A cut identical to the previous one would create an empty interval;
	// skip it (the states are necessarily identical, nothing to check).
	return advanced || ck.InputPos > prevInput
}

// runParallel replays the intervals through an executor and stitches
// the per-interval results. The executor is Input.Exec when set (a
// fleet run ships interval jobs by digest) and otherwise a Local
// executor bounded by Input.Workers. Error selection is deterministic
// either way: the earliest failing interval's error is returned,
// regardless of goroutine or worker finishing order.
func runParallel(in Input, ivs []*interval) (*Result, error) {
	results := make([]*Result, len(ivs))
	exec := in.Exec
	if exec == nil {
		exec = dispatch.Local{Workers: in.Workers}
	}
	err := exec.Execute(dispatch.Spec{
		Tasks: len(ivs),
		Run: func(i int) error {
			r, err := runInterval(in, ivs[i], nil, nil)
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		},
		Job: func(i int) (dispatch.Job, error) {
			return dispatch.Job{
				Kind:    dispatch.JobReplayInterval,
				Digest:  in.Digest,
				Payload: encodeIntervalJob(i, len(ivs)),
			}, nil
		},
		Absorb: func(i int, data []byte) error {
			r, err := decodeIntervalResult(data, i == len(ivs)-1, in.memBytes(ivs[i]))
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return stitch(ivs, results), nil
}

// wholeInterval is the recording as a single interval: the partition
// when no checkpoint cuts it.
func wholeInterval(in Input) *interval {
	return &interval{
		start:     in.Start,
		chunkLogs: in.ChunkLogs,
		inputLog:  in.InputLog,
		chunkBase: make([]int, in.Threads),
	}
}

// memBytes is the size of the memory interval iv replays against.
func (in *Input) memBytes(iv *interval) uint64 {
	if iv.start != nil {
		return iv.start.Mem.Size()
	}
	return (in.initialMemBytes() + mem.WordSize - 1) / mem.WordSize * mem.WordSize
}

// runInterval replays one interval serially on the calling goroutine.
// A non-nil sink receives the interval's access trace, filtered by
// filter.
func runInterval(in Input, iv *interval, filter ChunkFilter, sink AccessSink) (res *Result, err error) {
	defer recoverFault(&err)
	sub := in
	sub.ChunkLogs = iv.chunkLogs
	sub.InputLog = iv.inputLog
	sub.Start = iv.start
	sub.Workers = 0
	sub.Checkpoints = nil
	if iv.end != nil {
		// Interior intervals must reach their checkpoint exactly; only
		// the final interval may hit a truncated log. Note MaxSteps is a
		// per-interval budget here.
		sub.AllowTruncated = false
	}
	r := &replayer{
		in: sub, chunkBase: iv.chunkBase, boundary: iv.end, interval: iv.index,
		sink: sink, filter: filter,
	}
	if sink != nil {
		r.stepHook = func(_ *threadState, pcBefore int, _ isa.StepKind) { r.drainAccesses(pcBefore) }
	}
	r.setup()
	if err := r.loop(); err != nil {
		return nil, err
	}
	return r.finish()
}

// finishAtBoundary validates the interval's final state against the next
// checkpoint instead of requiring threads to halt or exit.
func (r *replayer) finishAtBoundary() (*Result, error) {
	b := r.boundary
	mismatch := func(t *threadState, format string, args ...any) error {
		return &BoundaryError{
			Interval: r.interval, Thread: t.id, Chunk: r.chunkBase[t.id] + t.chunksDone,
			Reason: fmt.Sprintf(format, args...),
		}
	}
	for _, t := range r.threads {
		ctx := t.finalCtx
		if !t.exited {
			ctx = t.core.SaveContext()
		}
		// The machine marks both exit-syscall and HALT termination as
		// "exited" in checkpoint snapshots; mirror that here, where the
		// replayer keeps the two apart.
		done := t.exited || t.core.Halted()
		if done != b.Exited[t.id] {
			return nil, mismatch(t, "termination flag %v, checkpoint records %v", done, b.Exited[t.id])
		}
		if ctx != b.Contexts[t.id] {
			return nil, mismatch(t, "context %+v does not match checkpoint %+v", ctx, b.Contexts[t.id])
		}
		if t.sigRegs != b.SigRegs[t.id] || t.sigPC != b.SigPC[t.id] {
			return nil, mismatch(t, "signal frame does not match checkpoint")
		}
		r.res.FinalContexts = append(r.res.FinalContexts, ctx)
		r.res.RetiredPerThread = append(r.res.RetiredPerThread, ctx.Retired)
	}
	whole := func(format string, args ...any) error {
		return &BoundaryError{
			Interval: r.interval, Thread: -1, Chunk: -1, Reason: fmt.Sprintf(format, args...),
		}
	}
	if r.handlerPC != b.HandlerPC || r.handlerOK != b.HandlerOK {
		return nil, whole("signal handler (%d, %v) does not match checkpoint (%d, %v)",
			r.handlerPC, r.handlerOK, b.HandlerPC, b.HandlerOK)
	}
	if !bytes.Equal(r.output, b.Output) {
		return nil, whole("fd-1 output (%d bytes) does not match checkpoint prefix (%d bytes)",
			len(r.output), len(b.Output))
	}
	// Word-for-word comparison decides; the checksums are computed only
	// to name the mismatch. An interior interval's MemChecksum is never
	// read (stitch takes the last interval's, and remote results ship it
	// for the final interval alone), so it stays zero.
	if !r.memory.Equal(b.Mem) {
		return nil, whole("memory checksum %#x does not match checkpoint %#x",
			r.memory.Checksum(), b.Mem.Checksum())
	}
	r.res.Output = r.output
	r.res.FinalMem = r.memory
	return &r.res, nil
}

// stitch combines per-interval results into the whole-recording Result.
// Final-state fields come from the last interval (whose boundary is the
// end of the recording); counters sum, because the intervals partition
// the logs exactly — every item executes in exactly one interval.
func stitch(ivs []*interval, results []*Result) *Result {
	last := results[len(results)-1]
	out := &Result{
		MemChecksum:      last.MemChecksum,
		Output:           last.Output,
		FinalContexts:    last.FinalContexts,
		RetiredPerThread: last.RetiredPerThread,
		FinalMem:         last.FinalMem,
		Truncation:       last.Truncation,
	}
	for _, r := range results {
		out.Steps += r.Steps
		out.ChunksExecuted += r.ChunksExecuted
		out.InputsApplied += r.InputsApplied
	}
	return out
}
