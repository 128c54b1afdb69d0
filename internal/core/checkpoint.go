package core

import (
	"errors"
	"fmt"
)

// ErrNoCheckpoint reports a Tail request on a recording made without
// checkpointing.
var ErrNoCheckpoint = errors.New("core: recording has no checkpoint (set CheckpointEveryInstrs)")

// Tail derives the flight-recorder bundle from a full recording made
// with Config.CheckpointEveryInstrs: the last checkpoint plus only the
// log entries after it. The tail replays to the same final state as the
// full bundle and verifies against the same reference.
func Tail(full *Bundle) (*Bundle, error) {
	return TailAt(full, len(full.IntervalCheckpoints)-1)
}

// TailAt derives the flight-recorder tail bundle resuming from interval
// checkpoint k (0-based) of a full bundle, recorded or decoded. The
// tail shares the checkpoint's snapshot and the reference final state
// with the full bundle. SigLogs are dropped: the race detector works on
// full recordings, not flight-recorder tails.
func TailAt(full *Bundle, k int) (*Bundle, error) {
	if len(full.IntervalCheckpoints) == 0 {
		return nil, ErrNoCheckpoint
	}
	if k < 0 || k >= len(full.IntervalCheckpoints) {
		return nil, fmt.Errorf("core: checkpoint index %d out of range (recording has %d)",
			k, len(full.IntervalCheckpoints))
	}
	ck := full.IntervalCheckpoints[k]
	if err := ck.Check(full.Threads); err != nil {
		return nil, err
	}
	tail := &Bundle{
		ProgramName:         full.ProgramName,
		Threads:             full.Threads,
		StackWordsPerThread: full.StackWordsPerThread,
		CountRepIterations:  full.CountRepIterations,
		Partial:             full.Partial,
		MemChecksum:         full.MemChecksum,
		Output:              full.Output,
		FinalContexts:       full.FinalContexts,
		RetiredPerThread:    full.RetiredPerThread,
		Checkpoint:          &ck.Snapshot,
	}
	for t, l := range full.ChunkLogs {
		tail.ChunkLogs = append(tail.ChunkLogs, l.Slice(ck.ChunkPos[t]))
	}
	tail.InputLog = full.InputLog.Slice(ck.InputPos)
	return tail, nil
}
