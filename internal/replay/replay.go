// Package replay consumes a QuickRec recording — per-thread chunk logs
// plus the Capo3 input log — and re-executes the program deterministically.
//
// The replayer needs no coherence simulation: it executes work items
// (user chunks and kernel input events) in the global serialization the
// Lamport timestamps encode. Within a thread, items are already ordered;
// across threads, the item with the smallest (TS, thread) executes next.
// Every conflicting pair of items was given strictly ordered timestamps
// by the recording hardware, so this schedule reproduces every load's
// value — and therefore the entire execution — exactly.
//
// Replay validates as it goes: syscall numbers must match the input log,
// signal delivery positions must match recorded instruction counts and
// REP residues, and chunks must end at instruction (and REP-iteration)
// boundaries exactly as recorded. Any mismatch is reported as a
// *DivergenceError rather than silently producing a wrong execution.
package replay

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Input is everything replay needs, extracted from a recording bundle.
type Input struct {
	// Prog is the recorded program (code is not logged; RnR replays the
	// same binary, as the paper's Capo3 does).
	Prog *isa.Program
	// Threads is the recorded thread count.
	Threads int
	// ChunkLogs holds thread t's chunk log at index t.
	ChunkLogs []*chunk.Log
	// InputLog holds all syscall/signal records.
	InputLog *capo.InputLog
	// StackWordsPerThread must match the recording machine's value so
	// the address space lines up.
	StackWordsPerThread uint64
	// Start, when non-nil, resumes replay from a flight-recorder
	// checkpoint's snapshot instead of the program's initial state;
	// ChunkLogs and InputLog must then hold only the post-checkpoint
	// tail.
	Start *capo.Snapshot
	// CountRepIterations matches the recorder's counting convention:
	// chunk sizes include one unit per REP iteration in addition to each
	// retired instruction (hardware performance-counter style). The
	// replayer must mirror whichever convention the hardware used — the
	// paper's instruction-counting lesson.
	CountRepIterations bool
	// MaxSteps, when nonzero, bounds the number of execution steps replay
	// may perform before aborting with a *DivergenceError. A corrupted
	// chunk size can send a spin-wait loop chasing an astronomically
	// distant boundary; the budget turns that hang into a detection.
	MaxSteps uint64
	// AllowTruncated accepts a salvaged recording prefix: when the logs
	// run out with threads still mid-execution, replay returns normally
	// with Result.Truncation describing them instead of reporting a
	// divergence. Everything executed up to that point was still fully
	// validated — truncation is a property of the log, not a waiver of
	// checking.
	AllowTruncated bool
	// Workers selects how many goroutines Run may use for parallel
	// interval replay. 0 or 1 replays serially; values above 1 split the
	// recording at Checkpoints into independent intervals and replay
	// them concurrently (see parallel.go). Negative values select
	// runtime.GOMAXPROCS(0). Results are bit-identical to serial replay:
	// each interval executes the exact per-thread log slice the serial
	// schedule would, and every interior boundary state is validated
	// against the next checkpoint.
	Workers int
	// Checkpoints lists the recording's flight-recorder checkpoints in
	// RetiredAt order. Only consulted when Workers or Exec enables
	// parallel replay; ChunkPos/InputPos index into ChunkLogs/InputLog.
	Checkpoints []*capo.Checkpoint
	// Exec, when non-nil, overrides the Workers-bounded local pool for
	// interval fan-out: the recording partitions at Checkpoints exactly
	// as for local parallel replay, and every interval becomes one
	// dispatch job. A remote executor requires Digest to be set so
	// workers can fetch the bundle by content address.
	Exec dispatch.Executor
	// Digest is the content address (lowercase hex SHA-256) of the
	// recording's uploaded bytes, stamped into remote interval jobs.
	// Ignored by local executors.
	Digest string
}

// TruncatedReplay describes a best-effort prefix replay that consumed a
// truncated log: the recording ended before these threads halted or
// exited. Present on Result only when Input.AllowTruncated was set.
type TruncatedReplay struct {
	// Threads lists the thread IDs whose logs ran out mid-execution.
	Threads []int
}

// String summarises the truncation.
func (t *TruncatedReplay) String() string {
	return fmt.Sprintf("replay truncated: %d thread(s) still running at log exhaustion %v",
		len(t.Threads), t.Threads)
}

// Result summarises a completed replay.
type Result struct {
	// MemChecksum hashes the final memory image.
	MemChecksum uint64
	// Output is what the replayed program wrote to fd 1.
	Output []byte
	// FinalContexts holds each thread's architectural state at exit.
	FinalContexts []isa.Context
	// RetiredPerThread is each thread's retired instruction count.
	RetiredPerThread []uint64
	// Steps counts execution steps performed.
	Steps uint64
	// ChunksExecuted and InputsApplied count consumed log items.
	ChunksExecuted uint64
	InputsApplied  uint64
	// FinalMem is the replayed memory image, for inspection (its
	// checksum equals MemChecksum).
	FinalMem *mem.Memory
	// Truncation is non-nil when AllowTruncated was set and the logs ran
	// out before every thread halted or exited: the replay is a validated
	// prefix of the recorded execution, not the whole of it.
	Truncation *TruncatedReplay
}

// DivergenceError reports that the replayed execution departed from the
// recording.
type DivergenceError struct {
	Thread int
	// Chunk is the index (into the thread's chunk log) of the chunk that
	// was executing — or about to execute — when the divergence was
	// detected; -1 when no chunk context applies.
	Chunk  int
	Reason string
}

// Error implements error.
func (e *DivergenceError) Error() string {
	if e.Chunk >= 0 {
		return fmt.Sprintf("replay: divergence on thread %d (chunk %d): %s", e.Thread, e.Chunk, e.Reason)
	}
	return fmt.Sprintf("replay: divergence on thread %d: %s", e.Thread, e.Reason)
}

// itemKind tags a work item.
type itemKind uint8

const (
	itemChunk itemKind = iota
	itemInput
)

// item is one unit of ordered replay work.
type item struct {
	kind  itemKind
	ts    uint64
	entry chunk.Entry
	rec   capo.Record
}

// flatPort executes replay accesses directly against memory.
type flatPort struct{ m *mem.Memory }

func (p flatPort) Load(addr uint64) uint64       { return p.m.Load(addr) }
func (p flatPort) Store(addr uint64, val uint64) { p.m.Store(addr, val) }
func (p flatPort) RMW(addr uint64, op isa.RMWOp) uint64 {
	old := p.m.Load(addr)
	p.m.Store(addr, op.Apply(old))
	return old
}

// threadState is one replayed thread.
type threadState struct {
	id       int
	core     *isa.Core
	items    []item
	next     int
	execBase uint64 // units at the last completed chunk boundary
	// chunksDone counts completed chunks, so divergence reports can name
	// the chunk-log index they occurred in.
	chunksDone int
	// cumTicks counts REP iterations executed (used when the recorder
	// counted hardware-style; units = retired + cumTicks).
	cumTicks uint64
	finalCtx isa.Context
	exited   bool
	// Signal frame, mirroring the kernel's: saved at signal delivery,
	// restored at SysSigReturn.
	sigRegs [isa.NumRegs]uint64
	sigPC   int
}

type replayer struct {
	in        Input
	memory    *mem.Memory
	threads   []*threadState
	output    []byte
	handlerPC int
	handlerOK bool
	res       Result
	// chunkBase[t] offsets interval-relative chunk indices into the full
	// recording's chunk log, so divergence reports from a parallel
	// interval name the absolute chunk (nil for whole-recording replay).
	chunkBase []int
	// boundary, when non-nil, is the expected machine state at the end
	// of this interval, the next checkpoint's snapshot; finish()
	// validates against it instead of requiring threads to halt or exit.
	// interval is the interval's index, which a BoundaryError names.
	boundary *capo.Snapshot
	interval int
	// bp, when set, pauses execution at a thread-local position (see
	// RunUntil).
	bp *Breakpoint
	// stepHook, when set, observes every execution step (see Trace).
	stepHook func(t *threadState, pcBefore int, kind isa.StepKind)
	// sink, filter, item and accessBuf implement access tracing (see
	// IntervalRunner.TraceInterval): cores run against a tracingPort
	// that buffers each step's raw accesses in accessBuf, and the step
	// hook drains the ones filter keeps to the sink, under the header of
	// the open work item.
	sink      AccessSink
	filter    ChunkFilter
	item      openItem
	accessBuf []rawAccess
}

// corePort returns the memory port replayed cores execute against:
// traced when access tracing is on, the bare memory otherwise.
func (r *replayer) corePort() isa.MemPort {
	if r.sink != nil {
		return tracingPort{inner: flatPort{r.memory}, buf: &r.accessBuf}
	}
	return flatPort{r.memory}
}

// Run replays the recording and returns the reconstructed execution
// state, or a *DivergenceError if the logs and the program disagree.
// Execution faults caused by corrupt logs (a restored context pointing
// outside the program, an access outside memory) are contained and
// returned as errors.
func Run(in Input) (res *Result, err error) {
	defer recoverFault(&err)
	return runChecked(in)
}

// recoverFault converts simulated-machine panics (driven by corrupt or
// hostile log data) into errors.
func recoverFault(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("replay: execution fault (corrupt recording?): %v", r)
	}
}

func runChecked(in Input) (*Result, error) {
	if err := validate(&in); err != nil {
		return nil, err
	}
	if ivs := partition(in); len(ivs) > 1 {
		return runParallel(in, ivs)
	}
	r := &replayer{in: in}
	r.setup()
	if err := r.loop(); err != nil {
		return nil, err
	}
	return r.finish()
}

// validate rejects an input whose thread count, logs and start state
// disagree, and applies the stack-size default.
func validate(in *Input) error {
	if in.Threads <= 0 || len(in.ChunkLogs) != in.Threads {
		return fmt.Errorf("replay: inconsistent input: %d threads, %d chunk logs",
			in.Threads, len(in.ChunkLogs))
	}
	if in.StackWordsPerThread == 0 {
		in.StackWordsPerThread = 1024
	}
	if in.Start != nil {
		return in.Start.Check(in.Threads)
	}
	return nil
}

// initialMemBytes is the size of the memory setup lays out for a replay
// from the program's initial state.
func (in *Input) initialMemBytes() uint64 {
	return in.Prog.MemBytes + in.StackWordsPerThread*8*uint64(in.Threads) + 4096
}

// setup reproduces the recording machine's address-space layout exactly,
// or restores a checkpoint when one is supplied.
func (r *replayer) setup() {
	if s := r.in.Start; s != nil {
		r.memory = s.Mem.Snapshot()
		r.handlerPC, r.handlerOK = s.HandlerPC, s.HandlerOK
		r.output = append(r.output, s.Output...)
		for t := 0; t < r.in.Threads; t++ {
			core := isa.NewCore(t, r.in.Prog, r.corePort())
			core.RestoreContext(s.Contexts[t])
			ts := &threadState{
				id: t, core: core, items: buildItems(r.in, t),
				execBase: s.Contexts[t].Retired,
				sigRegs:  s.SigRegs[t], sigPC: s.SigPC[t],
			}
			if s.Exited[t] {
				ts.exited = true
				ts.finalCtx = s.Contexts[t]
			}
			r.threads = append(r.threads, ts)
		}
		return
	}
	r.memory = mem.New(r.in.initialMemBytes())
	r.in.Prog.Init(r.memory)
	r.memory.Reserve(r.in.Prog.MemBytes)
	stackBase := make([]uint64, r.in.Threads)
	for t := 0; t < r.in.Threads; t++ {
		stackBase[t] = r.memory.Alloc(r.in.StackWordsPerThread * 8)
	}
	for t := 0; t < r.in.Threads; t++ {
		core := isa.NewCore(t, r.in.Prog, r.corePort())
		core.SetReg(isa.R1, uint64(t))
		core.SetReg(isa.R2, uint64(r.in.Threads))
		core.SetReg(isa.R29, stackBase[t])
		ts := &threadState{id: t, core: core, items: buildItems(r.in, t)}
		r.threads = append(r.threads, ts)
	}
}

// buildItems merges thread t's chunk entries and input records into one
// timestamp-ordered stream, a chunk before an input record of equal TS.
// Both sequences are already sorted in any log this machine writes (the
// recorder's per-thread clock is strictly monotonic across emissions), so
// this is a two-way merge. A stream out of order, as in a damaged log,
// falls back to sortItems, the reference order the merge reproduces.
func buildItems(in Input, t int) []item {
	entries := in.ChunkLogs[t].Entries
	recs := in.InputLog.Records
	n, sorted := len(entries), true
	for i := 1; i < len(entries); i++ {
		if entries[i].TS < entries[i-1].TS {
			sorted = false
		}
	}
	var last uint64
	for i := range recs {
		if recs[i].Thread != t {
			continue
		}
		if n > len(entries) && recs[i].TS < last {
			sorted = false
		}
		last = recs[i].TS
		n++
	}
	items := make([]item, 0, n)
	if !sorted {
		return sortItems(items, entries, recs, t)
	}
	ri := 0
	for _, e := range entries {
		for ; ri < len(recs); ri++ {
			if rec := &recs[ri]; rec.Thread == t {
				if rec.TS >= e.TS {
					break
				}
				items = append(items, item{kind: itemInput, ts: rec.TS, rec: *rec})
			}
		}
		items = append(items, item{kind: itemChunk, ts: e.TS, entry: e})
	}
	for ; ri < len(recs); ri++ {
		if recs[ri].Thread == t {
			items = append(items, item{kind: itemInput, ts: recs[ri].TS, rec: recs[ri]})
		}
	}
	return items
}

// sortItems appends thread t's chunk entries, then its input records, to
// items and stable-sorts the result by TS.
func sortItems(items []item, entries []chunk.Entry, recs []capo.Record, t int) []item {
	for _, e := range entries {
		items = append(items, item{kind: itemChunk, ts: e.TS, entry: e})
	}
	for _, rec := range recs {
		if rec.Thread == t {
			items = append(items, item{kind: itemInput, ts: rec.TS, rec: rec})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].ts < items[j].ts })
	return items
}

// ScheduledItem is one element of the deterministic global order in
// which replay will execute a recording's work items.
type ScheduledItem struct {
	// Thread is the executing thread.
	Thread int
	// IsChunk distinguishes user chunks from kernel input events.
	IsChunk bool
	// Entry is the chunk entry when IsChunk is true.
	Entry chunk.Entry
	// Rec is the input record when IsChunk is false.
	Rec capo.Record
}

// ScheduleOf computes, without executing anything, the exact global
// serialization Run would follow for in: per-thread streams merged by
// (TS, thread), ties resolved toward the lower thread ID. Conformance
// tooling uses it to decide whether a log perturbation changes replay
// semantics at all.
func ScheduleOf(in Input) []ScheduledItem {
	if in.Threads <= 0 || len(in.ChunkLogs) != in.Threads || in.InputLog == nil {
		return nil
	}
	type cursor struct {
		items []item
		next  int
	}
	cursors := make([]cursor, in.Threads)
	total := 0
	for t := 0; t < in.Threads; t++ {
		cursors[t].items = buildItems(in, t)
		total += len(cursors[t].items)
	}
	out := make([]ScheduledItem, 0, total)
	for {
		pick := -1
		for t := range cursors {
			c := &cursors[t]
			if c.next >= len(c.items) {
				continue
			}
			if pick < 0 || c.items[c.next].ts < cursors[pick].items[cursors[pick].next].ts {
				pick = t
			}
		}
		if pick < 0 {
			return out
		}
		it := cursors[pick].items[cursors[pick].next]
		cursors[pick].next++
		out = append(out, ScheduledItem{
			Thread: pick, IsChunk: it.kind == itemChunk, Entry: it.entry, Rec: it.rec,
		})
	}
}

// loop executes items globally ordered by (TS, thread).
func (r *replayer) loop() error {
	for {
		var pick *threadState
		for _, t := range r.threads {
			if t.next >= len(t.items) {
				continue
			}
			if pick == nil || t.items[t.next].ts < pick.items[pick.next].ts {
				pick = t
			}
		}
		if pick == nil {
			return nil // all streams exhausted
		}
		it := pick.items[pick.next]
		pick.next++
		if r.sink != nil {
			r.beginItem(pick, it.ts)
		}
		var err error
		switch it.kind {
		case itemChunk:
			err = r.runChunk(pick, it.entry)
			r.res.ChunksExecuted++
		case itemInput:
			err = r.applyInput(pick, it.rec)
			r.res.InputsApplied++
		}
		if err != nil {
			return err
		}
	}
}

func (r *replayer) diverge(t *threadState, format string, args ...any) error {
	ck := t.chunksDone
	if r.chunkBase != nil {
		ck += r.chunkBase[t.id]
	}
	return &DivergenceError{Thread: t.id, Chunk: ck, Reason: fmt.Sprintf(format, args...)}
}

// units returns thread t's position in the recorder's counting
// convention: retired instructions, plus REP iterations when the
// hardware counted them.
func (r *replayer) units(t *threadState) uint64 {
	if r.in.CountRepIterations {
		return t.core.Retired() + t.cumTicks
	}
	return t.core.Retired()
}

// runChunk executes exactly entry.Size counting units (plus REP
// iterations up to the recorded residue) on thread t.
//
// The chunk target, the step budget and the breakpoint position stay
// fixed for the whole chunk, so they are computed once and each step
// compares against them in the order breakpoint, budget, boundary. The
// boundary logic runs only once the position reaches the target.
func (r *replayer) runChunk(t *threadState, e chunk.Entry) error {
	target := t.execBase + e.Size
	maxSteps := r.in.MaxSteps
	if maxSteps == 0 { // no budget
		maxSteps = math.MaxUint64
	}
	pauseAt := uint64(math.MaxUint64)
	if r.bp != nil && r.bp.Thread == t.id {
		pauseAt = r.bp.Retired
	}
	for {
		if t.core.Retired() >= pauseAt {
			return errPaused
		}
		if r.res.Steps >= maxSteps {
			return r.diverge(t, "step budget exhausted after %d steps (corrupt chunk sizes?)", r.res.Steps)
		}
		if pos := r.units(t); pos >= target {
			_, repDone := t.core.RepInFlight()
			if pos > target {
				return r.diverge(t, "overshot chunk boundary: at %d, target %d", pos, target)
			}
			if repDone == e.RepResidue {
				break
			}
			if repDone > e.RepResidue {
				return r.diverge(t, "REP residue overshoot: %d > %d", repDone, e.RepResidue)
			}
			if r.in.CountRepIterations {
				return r.diverge(t, "REP residue mismatch at unit boundary: %d, recorded %d",
					repDone, e.RepResidue)
			}
		}
		pcBefore := t.core.PC()
		kind := t.core.Step()
		switch kind {
		case isa.StepRepTick:
			t.cumTicks++
		case isa.StepSyscall:
			return r.diverge(t, "unexpected syscall inside chunk (at %d, target %d)",
				r.units(t), target)
		case isa.StepHalted:
			if r.units(t) != target {
				return r.diverge(t, "halted mid-chunk: at %d, target %d", r.units(t), target)
			}
		}
		if r.stepHook != nil {
			r.stepHook(t, pcBefore, kind)
		}
		r.res.Steps++
	}
	t.execBase = target
	t.chunksDone++
	return nil
}

// applyInput replays one kernel event: a syscall completion or a signal
// delivery.
func (r *replayer) applyInput(t *threadState, rec capo.Record) error {
	switch rec.Kind {
	case capo.KindSignal:
		return r.applySignal(t, rec)
	case capo.KindSyscall:
		return r.applySyscall(t, rec)
	}
	return r.diverge(t, "unknown input record kind %d", rec.Kind)
}

func (r *replayer) applySignal(t *threadState, rec capo.Record) error {
	if got := t.core.Retired(); got != rec.Retired {
		return r.diverge(t, "signal position mismatch: retired %d, recorded %d", got, rec.Retired)
	}
	if _, repDone := t.core.RepInFlight(); repDone != rec.RepDone {
		return r.diverge(t, "signal REP residue mismatch: %d, recorded %d", repDone, rec.RepDone)
	}
	if !r.handlerOK {
		return r.diverge(t, "signal delivered but no handler registered during replay")
	}
	for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
		t.sigRegs[reg] = t.core.Reg(reg)
	}
	t.sigPC = t.core.PC()
	t.core.ClearRepState()
	t.core.SetPC(r.handlerPC)
	return nil
}

func (r *replayer) applySyscall(t *threadState, rec capo.Record) error {
	// The thread must be exactly at a syscall instruction.
	if !t.core.InSyscall() {
		pcBefore := t.core.PC()
		kind := t.core.Step()
		if kind != isa.StepSyscall {
			return r.diverge(t, "expected syscall trap for record %v, got step kind %d", rec, kind)
		}
		if r.stepHook != nil {
			r.stepHook(t, pcBefore, kind)
		}
		r.res.Steps++
	}
	sysno, a1, a2, a3, _ := t.core.SyscallArgs()
	if sysno != rec.Sysno {
		return r.diverge(t, "syscall number mismatch: executing %d, recorded %d", sysno, rec.Sysno)
	}
	if sysno == capo.SysFutexWait || sysno == capo.SysFutexWake {
		r.noteFutex(t, sysno, a1)
	}
	port := flatPort{r.memory}
	switch sysno {
	case capo.SysExit:
		t.core.AbortSyscall()
		t.finalCtx = t.core.SaveContext()
		t.exited = true
		return nil
	case capo.SysRead:
		capo.StoreBytes(port, rec.Addr, rec.Data)
	case capo.SysWrite:
		// Re-generate output from replayed memory: a strong end-to-end
		// check, since any divergence in the buffer shows up against the
		// recorded output.
		if int(a1) == 1 {
			r.output = capo.AppendBytes(r.output, port, a2, a3)
		}
	case capo.SysSigHandler:
		r.handlerPC = int(a1)
		r.handlerOK = true
	}
	t.core.CompleteSyscall(rec.Ret)
	// The retire belongs to the next chunk's budget; execBase advances
	// only at chunk completion.
	if sysno == capo.SysSigReturn {
		for reg := isa.Reg(1); reg < isa.NumRegs; reg++ {
			t.core.SetReg(reg, t.sigRegs[reg])
		}
		t.core.SetPC(t.sigPC)
	}
	return r.checkBreakpoint(t)
}

// finish validates final thread states and assembles the result.
func (r *replayer) finish() (*Result, error) {
	if r.boundary != nil {
		return r.finishAtBoundary()
	}
	for _, t := range r.threads {
		if !t.exited {
			if !t.core.Halted() {
				if !r.in.AllowTruncated {
					return nil, r.diverge(t, "log exhausted but thread neither halted nor exited")
				}
				// Threads are never mid-syscall here: a chunk ends before
				// the syscall instruction executes, and applySyscall always
				// completes or aborts the trap within one item. SaveContext
				// is therefore well-defined at log exhaustion.
				if r.res.Truncation == nil {
					r.res.Truncation = &TruncatedReplay{}
				}
				r.res.Truncation.Threads = append(r.res.Truncation.Threads, t.id)
			}
			t.finalCtx = t.core.SaveContext()
		}
		r.res.FinalContexts = append(r.res.FinalContexts, t.finalCtx)
		r.res.RetiredPerThread = append(r.res.RetiredPerThread, t.finalCtx.Retired)
	}
	r.res.MemChecksum = r.memory.Checksum()
	r.res.Output = r.output
	r.res.FinalMem = r.memory
	return &r.res, nil
}
