package replay

import (
	"fmt"

	"repro/internal/isa"
)

// TraceEntry is one executed instruction (or REP iteration) of the
// traced thread.
type TraceEntry struct {
	// PC is the instruction's index; Instr its disassembly.
	PC    int
	Instr string
	// Kind distinguishes whole retirements from REP iterations and
	// syscall completions.
	Kind isa.StepKind
	// Retired is the thread's architectural position after the step.
	Retired uint64
}

// Trace replays the recording and captures thread tid's instruction
// stream over the retired-count window [from, to). Like every replay
// operation it is deterministic: the same recording yields the same
// trace on every call — an execution history that can be grepped.
func Trace(in Input, tid int, from, to uint64) (entries []TraceEntry, err error) {
	defer recoverFault(&err)
	if tid < 0 || tid >= in.Threads {
		return nil, fmt.Errorf("replay: trace thread %d out of range", tid)
	}
	if to < from {
		return nil, fmt.Errorf("replay: empty trace window [%d, %d)", from, to)
	}
	r := &replayer{in: in, bp: &Breakpoint{Thread: tid, Retired: to}}
	if err := validate(&r.in); err != nil {
		return nil, err
	}
	var out []TraceEntry
	r.stepHook = func(t *threadState, pcBefore int, kind isa.StepKind) {
		if t.id != tid || t.core.Retired() <= from {
			return
		}
		instr := ""
		if pcBefore >= 0 && pcBefore < len(in.Prog.Code) {
			instr = in.Prog.Code[pcBefore].String()
		}
		out = append(out, TraceEntry{
			PC: pcBefore, Instr: instr, Kind: kind, Retired: t.core.Retired(),
		})
	}
	r.setup()
	err = r.loop()
	if err != nil && err != errPaused {
		return nil, err
	}
	entries = out
	return entries, nil
}
