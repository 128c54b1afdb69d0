package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/segment"
	"repro/internal/workload"
)

// sameReplayResult asserts two replay results are bit-identical in every
// observable field (FinalMem compared by image equality).
func sameReplayResult(t *testing.T, serial, par *replay.Result) {
	t.Helper()
	if par.MemChecksum != serial.MemChecksum {
		t.Errorf("MemChecksum %#x != serial %#x", par.MemChecksum, serial.MemChecksum)
	}
	if !bytes.Equal(par.Output, serial.Output) {
		t.Errorf("Output %d bytes != serial %d bytes", len(par.Output), len(serial.Output))
	}
	if !reflect.DeepEqual(par.FinalContexts, serial.FinalContexts) {
		t.Error("FinalContexts differ")
	}
	if !reflect.DeepEqual(par.RetiredPerThread, serial.RetiredPerThread) {
		t.Errorf("RetiredPerThread %v != serial %v", par.RetiredPerThread, serial.RetiredPerThread)
	}
	if par.Steps != serial.Steps {
		t.Errorf("Steps %d != serial %d", par.Steps, serial.Steps)
	}
	if par.ChunksExecuted != serial.ChunksExecuted {
		t.Errorf("ChunksExecuted %d != serial %d", par.ChunksExecuted, serial.ChunksExecuted)
	}
	if par.InputsApplied != serial.InputsApplied {
		t.Errorf("InputsApplied %d != serial %d", par.InputsApplied, serial.InputsApplied)
	}
	if !reflect.DeepEqual(par.Truncation, serial.Truncation) {
		t.Errorf("Truncation %+v != serial %+v", par.Truncation, serial.Truncation)
	}
	if !par.FinalMem.Equal(serial.FinalMem) {
		t.Error("FinalMem images differ")
	}
}

func TestParallelReplayMatchesSerialAcrossSuite(t *testing.T) {
	for _, spec := range workload.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			full := recordWithCheckpoint(t, spec, 4, 20_000, 3)
			prog := spec.Build(4)
			serial, err := ReplayWorkers(prog, full, 1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := ReplayWorkers(prog, full, 4)
			if err != nil {
				t.Fatal(err)
			}
			sameReplayResult(t, serial, par)
			if len(full.IntervalCheckpoints) > 0 {
				if err := Verify(full, par); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestParallelReplayNegativeWorkersUsesGOMAXPROCS(t *testing.T) {
	spec, _ := workload.ByName("radix")
	full := recordWithCheckpoint(t, spec, 4, 30_000, 5)
	prog := spec.Build(4)
	serial, err := Replay(prog, full)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReplayWorkers(prog, full, -1)
	if err != nil {
		t.Fatal(err)
	}
	sameReplayResult(t, serial, par)
}

// TestTailAtEveryCheckpoint is the interval off-by-one regression test:
// a tail resumed from any checkpoint must replay to the recording's
// final state, and the instruction stream after the boundary must agree
// with the full replay instruction-for-instruction — the boundary
// instruction is neither re-executed nor skipped.
func TestTailAtEveryCheckpoint(t *testing.T) {
	for _, spec := range workload.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			full := recordWithCheckpoint(t, spec, 4, 20_000, 9)
			if len(full.IntervalCheckpoints) == 0 {
				t.Skip("workload too short for a checkpoint")
			}
			if len(full.RecordStats.Checkpoints) != len(full.IntervalCheckpoints) {
				t.Fatalf("bundle carries %d interval checkpoints, recorder took %d",
					len(full.IntervalCheckpoints), len(full.RecordStats.Checkpoints))
			}
			prog := spec.Build(4)
			for k := range full.IntervalCheckpoints {
				tail, err := TailAt(full, k)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", k, err)
				}
				rr, err := Replay(prog, tail)
				if err != nil {
					t.Fatalf("checkpoint %d: tail replay: %v", k, err)
				}
				if err := Verify(tail, rr); err != nil {
					t.Fatalf("checkpoint %d: %v", k, err)
				}
				// Instruction-for-instruction agreement across the boundary:
				// trace the same absolute retired window on the full bundle
				// and the tail and compare streams.
				ck := full.IntervalCheckpoints[k]
				for tid := 0; tid < full.Threads; tid++ {
					from := ck.Contexts[tid].Retired
					to := from + 50
					if final := full.RetiredPerThread[tid]; to > final {
						to = final
					}
					if to <= from {
						continue
					}
					fullTr, err := Trace(prog, full, tid, from, to)
					if err != nil {
						t.Fatalf("checkpoint %d thread %d: full trace: %v", k, tid, err)
					}
					tailTr, err := Trace(prog, tail, tid, from, to)
					if err != nil {
						t.Fatalf("checkpoint %d thread %d: tail trace: %v", k, tid, err)
					}
					if !reflect.DeepEqual(fullTr, tailTr) {
						t.Fatalf("checkpoint %d thread %d: window [%d,%d) diverges: full %d entries, tail %d",
							k, tid, from, to, len(fullTr), len(tailTr))
					}
				}
			}
			// TailAt at the last checkpoint matches Tail.
			last, err := TailAt(full, len(full.IntervalCheckpoints)-1)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := Tail(full)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(last.Marshal(), legacy.Marshal()) {
				t.Error("TailAt(last) and Tail serialize differently")
			}
		})
	}
}

func TestTailAtRejectsBadIndex(t *testing.T) {
	spec, _ := workload.ByName("radix")
	full := recordWithCheckpoint(t, spec, 4, 30_000, 5)
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	if _, err := TailAt(full, -1); err == nil {
		t.Error("TailAt(-1) accepted")
	}
	if _, err := TailAt(full, len(full.IntervalCheckpoints)); err == nil {
		t.Error("TailAt(len) accepted")
	}
	plain, err := Record(workload.Counter(50, 2), recordCfg(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TailAt(plain, 0); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("TailAt without checkpoints: %v", err)
	}
}

func TestIntervalCheckpointsSerializeRoundTrip(t *testing.T) {
	spec, _ := workload.ByName("water")
	full := recordWithCheckpoint(t, spec, 4, 30_000, 7)
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	raw := full.Marshal()
	if raw[5]&8 == 0 {
		t.Fatal("interval-checkpoint flag bit not set")
	}
	got, err := UnmarshalBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IntervalCheckpoints) != len(full.IntervalCheckpoints) {
		t.Fatalf("%d interval checkpoints after round trip, want %d",
			len(got.IntervalCheckpoints), len(full.IntervalCheckpoints))
	}
	if !bytes.Equal(got.Marshal(), raw) {
		t.Fatal("marshal not closed under round trip")
	}
	// The deserialized bundle still replays in parallel to the same state.
	prog := spec.Build(4)
	serial, err := Replay(prog, full)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReplayWorkers(prog, got, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameReplayResult(t, serial, par)
}

// TestParallelTruncatedMatchesSerial covers truncation landing inside
// the final interval: salvaged prefixes replayed with Workers > 1 must
// report the identical Truncation (and everything else) as serial.
func TestParallelTruncatedMatchesSerial(t *testing.T) {
	_, data := streamRecorded(t, 4, func(c *machine.Config) {
		c.CheckpointEveryInstrs = 25_000
		c.FlushEveryChunks = 4
	})
	offs := segment.Offsets(data)
	if len(offs) < 6 {
		t.Fatalf("stream too short: %d segments", len(offs))
	}
	spec, _ := workload.ByName("radix")
	prog := spec.Build(4)
	sawParallelTruncated := false
	// Sweep cut points from just past the first checkpoint to the full
	// stream so truncation lands at different positions inside (and at)
	// the final interval.
	for _, off := range offs {
		sv, err := SalvageStream(data[:off])
		if err != nil {
			t.Fatalf("cut %d: %v", off, err)
		}
		serial, err := ReplayWorkers(prog, sv.Bundle, 1)
		if err != nil {
			t.Fatalf("cut %d: serial: %v", off, err)
		}
		par, err := ReplayWorkers(prog, sv.Bundle, 4)
		if err != nil {
			t.Fatalf("cut %d: parallel: %v", off, err)
		}
		sameReplayResult(t, serial, par)
		if len(sv.Bundle.IntervalCheckpoints) > 0 && par.Truncation != nil {
			sawParallelTruncated = true
		}
	}
	if !sawParallelTruncated {
		t.Error("no cut produced a truncated parallel replay over a checkpointed prefix")
	}
}

// TestParallelDivergenceNamesAbsoluteChunk checks that a divergence
// inside a late interval is reported with the same absolute thread and
// chunk index serial replay reports.
func TestParallelDivergenceNamesAbsoluteChunk(t *testing.T) {
	spec, _ := workload.ByName("radix")
	full := recordWithCheckpoint(t, spec, 4, 30_000, 5)
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	// Corrupt a chunk entry after the last checkpoint so the divergence
	// lands in the final interval.
	last := full.IntervalCheckpoints[len(full.IntervalCheckpoints)-1]
	tid := -1
	for t0 := 0; t0 < full.Threads; t0++ {
		if full.ChunkLogs[t0].Len() > last.ChunkPos[t0] {
			tid = t0
			break
		}
	}
	if tid < 0 {
		t.Skip("no post-checkpoint chunks")
	}
	full.ChunkLogs[tid].Entries[last.ChunkPos[tid]].Size += 3
	prog := spec.Build(4)
	_, serialErr := ReplayWorkers(prog, full, 1)
	_, parErr := ReplayWorkers(prog, full, 4)
	var sd, pd *replay.DivergenceError
	if !errors.As(serialErr, &sd) {
		t.Fatalf("serial error %v is not a divergence", serialErr)
	}
	if !errors.As(parErr, &pd) {
		t.Fatalf("parallel error %v is not a divergence", parErr)
	}
	if sd.Thread != pd.Thread || sd.Chunk != pd.Chunk {
		t.Errorf("parallel divergence (thread %d, chunk %d) != serial (thread %d, chunk %d)",
			pd.Thread, pd.Chunk, sd.Thread, sd.Chunk)
	}
}

// TestParallelBoundaryMismatchDetected tampers with a checkpoint's
// snapshot so the interval before it no longer reproduces its state.
func TestParallelBoundaryMismatchDetected(t *testing.T) {
	spec, _ := workload.ByName("radix")
	full := recordWithCheckpoint(t, spec, 4, 30_000, 5)
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	full.IntervalCheckpoints[0].Contexts[1].Regs[3] ^= 0xdead
	prog := spec.Build(4)
	_, err := ReplayWorkers(prog, full, 4)
	var be *replay.BoundaryError
	if !errors.As(err, &be) {
		t.Fatalf("tampered checkpoint: got %v, want a boundary error", err)
	}
	if be.Interval != 0 || be.Thread != 1 {
		t.Errorf("boundary error names interval %d thread %d, want 0/1", be.Interval, be.Thread)
	}
}

// TestParallelReplayAcrossThreadTermination pins the halt-vs-exit edge
// case: the machine marks a HALTed thread "exited" in checkpoint
// snapshots, while the replayer only sets its exited flag on the exit
// syscall. With a checkpoint cadence fine enough that threads terminate
// at different intervals, boundary validation must accept a thread that
// halted inside an interior interval — and parallel replay must still
// match serial bit for bit.
func TestParallelReplayAcrossThreadTermination(t *testing.T) {
	spec, ok := workload.ByName("counter")
	if !ok {
		t.Fatal("counter workload missing")
	}
	full := recordWithCheckpoint(t, spec, 4, 3000, 1)
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints taken")
	}
	terminated := false
	for _, ck := range full.IntervalCheckpoints {
		for _, ex := range ck.Exited {
			if ex {
				terminated = true
			}
		}
	}
	if !terminated {
		t.Skip("no thread terminated before a checkpoint; cadence too coarse to exercise the edge")
	}
	prog := spec.Build(4)
	serial, err := ReplayWorkers(prog, full, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReplayWorkers(prog, full, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameReplayResult(t, serial, par)
	if err := Verify(full, par); err != nil {
		t.Fatal(err)
	}
}
