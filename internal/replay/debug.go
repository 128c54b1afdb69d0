package replay

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Breakpoint names a thread-local position in the recorded execution:
// "thread Thread, just before it retires instruction number Retired".
type Breakpoint struct {
	Thread  int
	Retired uint64
}

// PauseState is the machine state at a breakpoint — the heart of
// record-and-replay debugging: any position in a recorded run can be
// materialised deterministically, as many times as needed.
type PauseState struct {
	// Hit reports whether the breakpoint was reached (false: the
	// recording ended before the position).
	Hit bool
	// Contexts holds every thread's architectural state at the pause.
	Contexts []isa.Context
	// Mem is the memory image at the pause (owned by the caller).
	Mem *mem.Memory
	// Output is fd-1 output produced up to the pause.
	Output []byte
	// ItemsExecuted counts log items started before pausing (the item
	// containing the breakpoint is included).
	ItemsExecuted uint64
}

// errPaused threads the pause signal through the replay loop.
var errPaused = errors.New("replay: paused")

// RunUntil replays the recording until the breakpoint and returns the
// paused state. The same (recording, breakpoint) pair always yields the
// identical state. When the recording ends before the breakpoint, the
// final state is returned with Hit == false.
func RunUntil(in Input, bp Breakpoint) (ps *PauseState, err error) {
	defer recoverFault(&err)
	if bp.Thread < 0 || bp.Thread >= in.Threads {
		return nil, fmt.Errorf("replay: breakpoint thread %d out of range", bp.Thread)
	}
	r := &replayer{in: in, bp: &bp}
	if err := validate(&r.in); err != nil {
		return nil, err
	}
	if s := in.Start; s != nil && s.Contexts[bp.Thread].Retired > bp.Retired {
		return nil, fmt.Errorf("replay: breakpoint at %d predates the checkpoint (thread already at %d)",
			bp.Retired, s.Contexts[bp.Thread].Retired)
	}
	r.setup()
	err = r.loop()
	switch {
	case errors.Is(err, errPaused):
		return r.pauseState(true), nil
	case err != nil:
		return nil, err
	default:
		return r.pauseState(false), nil
	}
}

func (r *replayer) pauseState(hit bool) *PauseState {
	ps := &PauseState{
		Hit:           hit,
		Mem:           r.memory,
		Output:        r.output,
		ItemsExecuted: r.res.ChunksExecuted + r.res.InputsApplied,
	}
	for _, t := range r.threads {
		ps.Contexts = append(ps.Contexts, t.core.SaveContext())
	}
	return ps
}

// checkBreakpoint pauses when the target thread sits exactly at the
// breakpoint position (called between execution steps of that thread).
func (r *replayer) checkBreakpoint(t *threadState) error {
	if r.bp != nil && t.id == r.bp.Thread && t.core.Retired() >= r.bp.Retired {
		return errPaused
	}
	return nil
}
