package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/qasm"
	"repro/internal/segment"
	"repro/internal/workload"
)

func streamRecorded(t *testing.T, threads int, mut func(*machine.Config)) (*Bundle, []byte) {
	t.Helper()
	spec, _ := workload.ByName("radix")
	prog := spec.Build(threads)
	cfg := recordCfg(5, func(c *machine.Config) {
		c.Threads = threads
		c.FlushEveryChunks = 8
		if mut != nil {
			mut(c)
		}
	})
	var buf bytes.Buffer
	b, err := StreamRecord(prog, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return b, buf.Bytes()
}

func TestStreamSalvageRoundTrip(t *testing.T) {
	full, data := streamRecorded(t, 4, nil)
	sv, err := SalvageStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Report.Complete || sv.Bundle.Partial {
		t.Fatalf("undamaged stream salvaged as partial: %s", sv.Report)
	}
	// The salvaged bundle is byte-identical to the recorded one.
	if !bytes.Equal(sv.Bundle.Marshal(), full.Marshal()) {
		t.Fatal("salvaged bundle differs from recorded bundle")
	}
	spec, _ := workload.ByName("radix")
	rr, err := Replay(spec.Build(4), sv.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sv.Bundle, rr); err != nil {
		t.Fatal(err)
	}
}

func TestSalvageTruncatedStreamReplaysPrefix(t *testing.T) {
	full, data := streamRecorded(t, 4, nil)
	offs := segment.Offsets(data)
	if len(offs) < 4 {
		t.Fatalf("stream too short: %d segments", len(offs))
	}
	cut := offs[len(offs)/2]
	sv, err := SalvageStream(data[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Bundle.Partial {
		t.Fatal("torn stream salvaged as complete")
	}
	spec, _ := workload.ByName("radix")
	rr, err := Replay(spec.Build(4), sv.Bundle)
	if err != nil {
		t.Fatalf("prefix replay: %v", err)
	}
	if rr.Truncation == nil || len(rr.Truncation.Threads) == 0 {
		t.Fatal("prefix replay reported no truncation")
	}
	if !bytes.HasPrefix(full.Output, rr.Output) {
		t.Fatalf("replayed output (%d bytes) is not a prefix of the recorded output (%d bytes)",
			len(rr.Output), len(full.Output))
	}
	for tid, r := range rr.RetiredPerThread {
		if r > full.RetiredPerThread[tid] {
			t.Fatalf("thread %d replayed %d instructions, recording retired %d", tid, r, full.RetiredPerThread[tid])
		}
	}
	if err := Verify(sv.Bundle, rr); err == nil {
		t.Fatal("Verify accepted a partial bundle")
	}
}

// TestSalvagedTailReplay exercises the flight-recorder path on damaged
// streams: salvage a stream truncated at and after its checkpoint, take
// the tail, and replay from the restored snapshot.
func TestSalvagedTailReplay(t *testing.T) {
	full, data := streamRecorded(t, 4, func(c *machine.Config) {
		c.CheckpointEveryInstrs = 40_000
	})
	if len(full.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints taken")
	}
	offs := segment.Offsets(data)
	// Find the cut that ends exactly at the first checkpoint segment.
	ckptCut := -1
	for _, off := range offs {
		sv, err := SalvageStream(data[:off])
		if err != nil {
			t.Fatal(err)
		}
		if sv.HasCheckpoint() {
			ckptCut = off
			break
		}
	}
	if ckptCut < 0 {
		t.Fatal("no prefix contains the checkpoint")
	}
	spec, _ := workload.ByName("radix")

	cuts := []int{ckptCut, (ckptCut + len(data)) / 2, len(data)}
	for _, cut := range cuts {
		sv, err := SalvageStream(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !sv.HasCheckpoint() {
			t.Fatalf("cut %d: checkpoint lost", cut)
		}
		tail, err := sv.Tail()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if tail.Partial != (cut != len(data)) {
			t.Fatalf("cut %d: Partial=%v", cut, tail.Partial)
		}
		rr, err := Replay(spec.Build(4), tail)
		if err != nil {
			t.Fatalf("cut %d: tail replay: %v", cut, err)
		}
		if !bytes.HasPrefix(full.Output, rr.Output) {
			t.Fatalf("cut %d: tail output not a prefix of the recording's", cut)
		}
		if cut == len(data) {
			if err := Verify(tail, rr); err != nil {
				t.Fatalf("full-stream tail fails verification: %v", err)
			}
		}
	}
	// A mid-stream cut's salvage with no usable checkpoint yet still
	// reports ErrNoCheckpoint cleanly.
	sv, err := SalvageStream(data[:offs[1]])
	if err != nil {
		t.Fatal(err)
	}
	if sv.HasCheckpoint() {
		t.Skip("checkpoint landed in the second segment")
	}
	if _, err := sv.Tail(); err != ErrNoCheckpoint {
		t.Fatalf("Tail on checkpoint-free salvage: %v", err)
	}
}

func TestPartialBundleMarshalRoundTrip(t *testing.T) {
	_, data := streamRecorded(t, 2, nil)
	offs := segment.Offsets(data)
	sv, err := SalvageStream(data[:offs[len(offs)/2]])
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Bundle.Partial {
		t.Fatal("expected a partial bundle")
	}
	raw := sv.Bundle.Marshal()
	if raw[5]&2 == 0 {
		t.Fatal("partial flag bit not set in serialized bundle")
	}
	got, err := UnmarshalBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial {
		t.Fatal("Partial lost in marshal round trip")
	}
}

// faultAfterLoop counts to 20,000 on one thread, then stores to an
// unaligned address: a run that faults after seven checkpoints.
const faultAfterLoop = `
.name fault-after-loop
.threads 1
        li   r5, 0
        li   r8, 20000
loop:   addi r5, r5, 1
        blt  r5, r8, loop
        li   r3, 4101
        st   [r3+0], r5
        halt
`

// TestFailedRunLeavesSalvageableStream pins that a recording ending in a
// machine error leaves the epochs it flushed on its stream. Each failed
// stream must salvage as a torn recording that replays from program
// start until the logs run out.
func TestFailedRunLeavesSalvageableStream(t *testing.T) {
	prog, err := qasm.Parse(faultAfterLoop)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		maxSteps uint64
		want     error
	}{
		{"fault/unbounded", 0, machine.ErrFault},
		{"step-limit/unbounded", 30_000, machine.ErrStepLimit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := recordCfg(1, func(c *machine.Config) {
				c.CheckpointEveryInstrs = 5000
				c.FlushEveryChunks = 8
				if tc.maxSteps != 0 {
					c.MaxSteps = tc.maxSteps
				}
			})
			var buf bytes.Buffer
			if _, err := StreamRecord(prog, cfg, &buf); !errors.Is(err, tc.want) {
				t.Fatalf("record error %v, want %v", err, tc.want)
			}
			sv, err := SalvageStream(buf.Bytes())
			if err != nil {
				t.Fatalf("salvage of the %d-byte stream: %v", buf.Len(), err)
			}
			t.Logf("%d-byte stream: %s", buf.Len(), sv.Report)
			if !sv.Bundle.Partial {
				t.Fatalf("failed run's stream salvaged as complete: %s", sv.Report)
			}
			rr, err := Replay(prog, sv.Bundle)
			if err != nil {
				t.Fatalf("replay of the salvaged stream: %v", err)
			}
			if rr.Truncation == nil {
				t.Fatal("replay of a torn stream reported no truncation")
			}
		})
	}
}
