package core

import (
	"bytes"
	"testing"

	"repro/internal/chunk"
	"repro/internal/machine"
	"repro/internal/workload"
)

func recordWithCheckpoint(t *testing.T, spec workload.Spec, threads int, every uint64, seed uint64) *Bundle {
	t.Helper()
	prog := spec.Build(threads)
	cfg := recordCfg(seed, func(c *machine.Config) {
		c.Threads = threads
		c.CheckpointEveryInstrs = every
	})
	b, err := Record(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTailReplaysToSameFinalState(t *testing.T) {
	spec, _ := workload.ByName("radix")
	full := recordWithCheckpoint(t, spec, 4, 50_000, 3)
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints taken")
	}
	// The full bundle still replays from the start.
	rrFull, err := Replay(spec.Build(4), full)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(full, rrFull); err != nil {
		t.Fatal(err)
	}
	// The tail bundle replays from the checkpoint to the identical state.
	tail, err := Tail(full)
	if err != nil {
		t.Fatal(err)
	}
	rrTail, err := Replay(spec.Build(4), tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tail, rrTail); err != nil {
		t.Fatal(err)
	}
	if rrTail.MemChecksum != rrFull.MemChecksum {
		t.Error("tail and full replays disagree")
	}
	// The tail's logs are genuinely smaller.
	var fullChunks, tailChunks int
	for i := range full.ChunkLogs {
		fullChunks += full.ChunkLogs[i].Len()
		tailChunks += tail.ChunkLogs[i].Len()
	}
	if tailChunks >= fullChunks {
		t.Errorf("tail holds %d chunks vs full %d — nothing truncated", tailChunks, fullChunks)
	}
}

func TestTailAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, spec := range workload.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			full := recordWithCheckpoint(t, spec, 4, 30_000, 9)
			if len(full.IntervalCheckpoints) == 0 {
				t.Skip("workload too short for a checkpoint")
			}
			tail, err := Tail(full)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Replay(spec.Build(4), tail)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tail, rr); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTailWithoutCheckpointFails(t *testing.T) {
	b, err := Record(workload.Counter(50, 2), recordCfg(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tail(b); err == nil {
		t.Error("Tail succeeded without a checkpoint")
	}
}

func TestCheckpointChunkBoundaries(t *testing.T) {
	spec, _ := workload.ByName("fft")
	full := recordWithCheckpoint(t, spec, 4, 100_000, 5)
	sawCkptReason := false
	for _, l := range full.ChunkLogs {
		for _, e := range l.Entries {
			if e.Reason == chunk.ReasonCheckpoint {
				sawCkptReason = true
			}
		}
	}
	if !sawCkptReason {
		t.Error("no checkpoint-terminated chunks despite checkpoints")
	}
}

func TestTailBundleSerializes(t *testing.T) {
	spec, _ := workload.ByName("water")
	full := recordWithCheckpoint(t, spec, 4, 50_000, 7)
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	tail, err := Tail(full)
	if err != nil {
		t.Fatal(err)
	}
	data := tail.Marshal()
	// Tail needs only the bundle's own checkpoints, so a decoded full
	// bundle yields the same tail as the recording.
	decoded, err := UnmarshalBundle(full.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	decodedTail, err := Tail(decoded)
	if err != nil {
		t.Fatalf("tail of a decoded bundle: %v", err)
	}
	if !bytes.Equal(decodedTail.Marshal(), data) {
		t.Error("tail of the decoded bundle marshals differently from the recording's tail")
	}
	got, err := UnmarshalBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == nil {
		t.Fatal("checkpoint lost in serialization")
	}
	if !got.Checkpoint.Mem.Equal(tail.Checkpoint.Mem) {
		t.Error("checkpoint memory image corrupted")
	}
	rr, err := Replay(spec.Build(4), got)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(got, rr); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointWithSignalsAndPreemption(t *testing.T) {
	spec, _ := workload.ByName("counter")
	prog := workload.SignalLoop(60000, 6)
	_ = spec
	cfg := recordCfg(11, func(c *machine.Config) {
		c.Cores = 2
		c.Threads = 6
		c.TimeSliceInstrs = 2000
		c.SignalPeriodInstrs = 5000
		c.CheckpointEveryInstrs = 40_000
	})
	full, err := Record(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.IntervalCheckpoints) == 0 {
		t.Skip("no checkpoint boundary crossed")
	}
	tail, err := Tail(full)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Replay(prog, tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tail, rr); err != nil {
		t.Fatal(err)
	}
}

func TestTamperedCheckpointRejected(t *testing.T) {
	spec, _ := workload.ByName("water")
	full := recordWithCheckpoint(t, spec, 4, 50_000, 7)
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	tail, err := Tail(full)
	if err != nil {
		t.Fatal(err)
	}
	tail.Checkpoint.Contexts = tail.Checkpoint.Contexts[:1]
	if _, err := Replay(spec.Build(4), tail); err == nil {
		t.Error("malformed checkpoint accepted")
	}
}
