package replay

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
)

// progPlain: three instructions then halt (no kernel crossings).
func progPlain() *isa.Program {
	b := isa.NewBuilder("plain")
	b.Li(isa.R3, 1)
	b.Li(isa.R4, 2)
	b.Add(isa.R5, isa.R3, isa.R4)
	b.Halt()
	return b.Build(64, 1, nil)
}

// progRep: three setup instructions, a 4-iteration REP fill, then halt.
func progRep() *isa.Program {
	b := isa.NewBuilder("rep")
	b.Li(isa.R3, 64)
	b.Li(isa.R4, 7)
	b.Li(isa.R5, 4)
	b.RepStos(isa.R3, isa.R4, isa.R5)
	b.Halt()
	return b.Build(256, 1, nil)
}

// repcopyBudgetInput records repcopy, whose REP runs the recorder splits
// across chunks, and returns it as a replay input whose step budget is
// exactly the steps a full replay takes. It first checks that the split
// happened and that one more step of budget suffices: replay checks the
// budget before each boundary check, so after its last step a full
// replay needs one step to spare.
func repcopyBudgetInput(t *testing.T, countRepIterations bool) Input {
	t.Helper()
	cfg := recordConfig(1)
	cfg.MRR.CountRepIterations = countRepIterations
	in := recordedInput(t, "repcopy", cfg)
	split := false
	for _, l := range in.ChunkLogs {
		for _, e := range l.Entries {
			split = split || e.RepResidue != 0
		}
	}
	if !split {
		t.Fatal("no chunk of the repcopy recording ends inside a REP run")
	}
	full, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	in.MaxSteps = full.Steps + 1
	if _, err := Run(in); err != nil {
		t.Fatalf("a budget of %d steps, one more than a full replay takes, fails: %v", in.MaxSteps, err)
	}
	in.MaxSteps = full.Steps
	return in
}

func chunkLog(entries ...chunk.Entry) []*chunk.Log {
	l := &chunk.Log{Thread: 0}
	for _, e := range entries {
		l.Append(e)
	}
	return []*chunk.Log{l}
}

// TestDivergencePathsReturnDivergenceError is the audit of every
// divergence exit in the replayer: each crafted log/program mismatch must
// surface as a *DivergenceError (via errors.As) carrying the thread and
// the chunk-log index at which replay detected the departure — never a
// bare error, never a silent success.
func TestDivergencePathsReturnDivergenceError(t *testing.T) {
	sysRec := func(ts uint64, sysno uint64) capo.Record {
		return capo.Record{Kind: capo.KindSyscall, Thread: 0, TS: ts, Sysno: sysno}
	}
	exact, exactHW := repcopyBudgetInput(t, false), repcopyBudgetInput(t, true)
	short, shortHW := exact, exactHW
	short.MaxSteps--
	shortHW.MaxSteps--
	budgetReason := func(in Input) string {
		return fmt.Sprintf("step budget exhausted after %d steps", in.MaxSteps)
	}
	cases := []struct {
		name       string
		in         Input
		wantReason string
		wantChunk  int
		wantThread int
	}{
		{
			name: "syscall-inside-chunk",
			in: Input{Prog: simpleProg(), Threads: 1,
				ChunkLogs: chunkLog(chunk.Entry{Size: 6, TS: 0, Reason: chunk.ReasonFlush}),
				InputLog:  &capo.InputLog{}},
			wantReason: "unexpected syscall inside chunk",
			wantChunk:  0,
		},
		{
			name: "halted-mid-chunk",
			in: Input{Prog: progPlain(), Threads: 1,
				ChunkLogs: chunkLog(chunk.Entry{Size: 10, TS: 0, Reason: chunk.ReasonFlush}),
				InputLog:  &capo.InputLog{}},
			wantReason: "halted mid-chunk",
			wantChunk:  0,
		},
		{
			name: "overshot-chunk-boundary",
			in: Input{Prog: simpleProg(), Threads: 1,
				ChunkLogs: chunkLog(
					chunk.Entry{Size: 4, TS: 0, Reason: chunk.ReasonSyscall},
					chunk.Entry{Size: 0, TS: 2, Reason: chunk.ReasonFlush}),
				InputLog: &capo.InputLog{Records: []capo.Record{sysRec(1, capo.SysGetTID)}}},
			wantReason: "overshot chunk boundary",
			wantChunk:  1,
		},
		{
			name: "rep-residue-overshoot",
			in: Input{Prog: progRep(), Threads: 1,
				ChunkLogs: chunkLog(
					chunk.Entry{Size: 3, TS: 0, Reason: chunk.ReasonConflictRAW, RepResidue: 2},
					chunk.Entry{Size: 0, TS: 1, Reason: chunk.ReasonFlush, RepResidue: 1}),
				InputLog: &capo.InputLog{}},
			wantReason: "REP residue overshoot",
			wantChunk:  1,
		},
		{
			name: "rep-residue-mismatch-hw-counting",
			in: Input{Prog: progRep(), Threads: 1, CountRepIterations: true,
				ChunkLogs: chunkLog(chunk.Entry{Size: 5, TS: 0, Reason: chunk.ReasonConflictRAW, RepResidue: 3}),
				InputLog:  &capo.InputLog{}},
			wantReason: "REP residue mismatch at unit boundary",
			wantChunk:  0,
		},
		{
			name: "unknown-record-kind",
			in: Input{Prog: progPlain(), Threads: 1,
				ChunkLogs: chunkLog(chunk.Entry{Size: 4, TS: 1, Reason: chunk.ReasonFlush}),
				InputLog:  &capo.InputLog{Records: []capo.Record{{Kind: 9, Thread: 0, TS: 0}}}},
			wantReason: "unknown input record kind",
			wantChunk:  0,
		},
		{
			name: "signal-position-mismatch",
			in: Input{Prog: progPlain(), Threads: 1,
				ChunkLogs: chunkLog(chunk.Entry{Size: 4, TS: 1, Reason: chunk.ReasonFlush}),
				InputLog: &capo.InputLog{Records: []capo.Record{
					{Kind: capo.KindSignal, Thread: 0, TS: 0, Retired: 99}}}},
			wantReason: "signal position mismatch",
			wantChunk:  0,
		},
		{
			name: "signal-rep-residue-mismatch",
			in: Input{Prog: progPlain(), Threads: 1,
				ChunkLogs: chunkLog(chunk.Entry{Size: 4, TS: 1, Reason: chunk.ReasonFlush}),
				InputLog: &capo.InputLog{Records: []capo.Record{
					{Kind: capo.KindSignal, Thread: 0, TS: 0, Retired: 0, RepDone: 5}}}},
			wantReason: "signal REP residue mismatch",
			wantChunk:  0,
		},
		{
			name: "signal-without-handler",
			in: Input{Prog: progPlain(), Threads: 1,
				ChunkLogs: chunkLog(chunk.Entry{Size: 4, TS: 1, Reason: chunk.ReasonFlush}),
				InputLog: &capo.InputLog{Records: []capo.Record{
					{Kind: capo.KindSignal, Thread: 0, TS: 0, Retired: 0, RepDone: 0}}}},
			wantReason: "no handler registered",
			wantChunk:  0,
		},
		{
			name: "expected-syscall-trap",
			in: Input{Prog: progPlain(), Threads: 1,
				ChunkLogs: chunkLog(chunk.Entry{Size: 4, TS: 1, Reason: chunk.ReasonFlush}),
				InputLog:  &capo.InputLog{Records: []capo.Record{sysRec(0, capo.SysGetTID)}}},
			wantReason: "expected syscall trap",
			wantChunk:  0,
		},
		{
			name: "syscall-number-mismatch",
			in: Input{Prog: simpleProg(), Threads: 1,
				ChunkLogs: chunkLog(
					chunk.Entry{Size: 4, TS: 0, Reason: chunk.ReasonSyscall},
					chunk.Entry{Size: 2, TS: 2, Reason: chunk.ReasonFlush}),
				InputLog: &capo.InputLog{Records: []capo.Record{sysRec(1, capo.SysWrite)}}},
			wantReason: "syscall number mismatch",
			wantChunk:  1,
		},
		{
			name: "log-exhausted-not-halted",
			in: Input{Prog: progPlain(), Threads: 1,
				ChunkLogs: chunkLog(chunk.Entry{Size: 2, TS: 0, Reason: chunk.ReasonFlush}),
				InputLog:  &capo.InputLog{}},
			wantReason: "log exhausted",
			wantChunk:  1,
		},
		{
			name: "step-budget-exhausted",
			in: Input{Prog: progPlain(), Threads: 1, MaxSteps: 2,
				ChunkLogs: chunkLog(chunk.Entry{Size: 4, TS: 0, Reason: chunk.ReasonFlush}),
				InputLog:  &capo.InputLog{}},
			wantReason: "step budget exhausted",
			wantChunk:  0,
		},
		{
			name:       "step-budget-exact-repcopy",
			in:         exact,
			wantReason: budgetReason(exact),
			wantChunk:  34,
			wantThread: 2,
		},
		{
			name:       "step-budget-one-short-repcopy",
			in:         short,
			wantReason: budgetReason(short),
			wantChunk:  34,
			wantThread: 2,
		},
		{
			name:       "step-budget-exact-repcopy-hw-counting",
			in:         exactHW,
			wantReason: budgetReason(exactHW),
			wantChunk:  34,
			wantThread: 2,
		},
		{
			name:       "step-budget-one-short-repcopy-hw-counting",
			in:         shortHW,
			wantReason: budgetReason(shortHW),
			wantChunk:  34,
			wantThread: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.in)
			if err == nil {
				t.Fatal("replay succeeded; want divergence")
			}
			var de *DivergenceError
			if !errors.As(err, &de) {
				t.Fatalf("error %v (%T) is not a *DivergenceError", err, err)
			}
			if de.Thread != tc.wantThread {
				t.Errorf("Thread = %d, want %d", de.Thread, tc.wantThread)
			}
			if de.Chunk != tc.wantChunk {
				t.Errorf("Chunk = %d, want %d", de.Chunk, tc.wantChunk)
			}
			if !strings.Contains(de.Reason, tc.wantReason) {
				t.Errorf("Reason %q does not contain %q", de.Reason, tc.wantReason)
			}
		})
	}
}

// TestScheduleOfMatchesRunOrder pins that ScheduleOf predicts exactly the
// item order Run consumes, on a two-thread interleaving with a TS tie
// (resolved toward the lower thread ID).
func TestScheduleOfMatchesRunOrder(t *testing.T) {
	l0 := &chunk.Log{Thread: 0}
	l0.Append(chunk.Entry{Size: 1, TS: 5, Reason: chunk.ReasonFlush})
	l1 := &chunk.Log{Thread: 1}
	l1.Append(chunk.Entry{Size: 2, TS: 5, Reason: chunk.ReasonFlush})
	in := Input{Threads: 2, ChunkLogs: []*chunk.Log{l0, l1}, InputLog: &capo.InputLog{
		Records: []capo.Record{{Kind: capo.KindSyscall, Thread: 1, TS: 3, Sysno: capo.SysGetTID}},
	}}
	sched := ScheduleOf(in)
	if len(sched) != 3 {
		t.Fatalf("schedule has %d items, want 3", len(sched))
	}
	if sched[0].IsChunk || sched[0].Thread != 1 {
		t.Errorf("item 0 = %+v, want thread 1 input record (TS 3)", sched[0])
	}
	if !sched[1].IsChunk || sched[1].Thread != 0 {
		t.Errorf("item 1 = %+v, want thread 0 chunk (TS tie resolved to lower thread)", sched[1])
	}
	if !sched[2].IsChunk || sched[2].Thread != 1 {
		t.Errorf("item 2 = %+v, want thread 1 chunk", sched[2])
	}
	if ScheduleOf(Input{Threads: 0}) != nil {
		t.Error("ScheduleOf of inconsistent input should be nil")
	}
}
