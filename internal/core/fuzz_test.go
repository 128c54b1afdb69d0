package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// TestFuzzRoundTrips is the randomized soundness harness: generated
// programs (random mixes of shared/private traffic, atomics, REP bursts,
// locks, barriers and syscalls) must record and replay bit-exactly under
// multiple schedules.
func TestFuzzRoundTrips(t *testing.T) {
	nProgs := 24
	if testing.Short() {
		nProgs = 4
	}
	for progSeed := uint64(0); progSeed < uint64(nProgs); progSeed++ {
		prog := workload.RandomProgram(progSeed, 4)
		for _, schedSeed := range []uint64{1, 7} {
			if _, _, err := RecordAndVerify(prog, recordCfg(schedSeed, nil)); err != nil {
				t.Fatalf("prog seed %d, sched seed %d: %v", progSeed, schedSeed, err)
			}
		}
	}
}

// TestFuzzRoundTripsHarshConditions adds preemption, few cores and
// signal-free reruns of the same programs.
func TestFuzzRoundTripsHarshConditions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for progSeed := uint64(20); progSeed < 32; progSeed++ {
		prog := workload.RandomProgram(progSeed, 6)
		cfg := recordCfg(progSeed, func(c *machine.Config) {
			c.Cores = 2
			c.Threads = 6
			c.TimeSliceInstrs = 300
		})
		if _, _, err := RecordAndVerify(prog, cfg); err != nil {
			t.Fatalf("prog seed %d: %v", progSeed, err)
		}
	}
}

// TestFuzzWithCheckpoints runs generated programs under flight-recorder
// checkpointing and verifies the tails.
func TestFuzzWithCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for progSeed := uint64(40); progSeed < 50; progSeed++ {
		prog := workload.RandomProgram(progSeed, 4)
		cfg := recordCfg(3, func(c *machine.Config) {
			c.CheckpointEveryInstrs = 2000
		})
		full, err := Record(prog, cfg)
		if err != nil {
			t.Fatalf("prog seed %d: %v", progSeed, err)
		}
		if len(full.IntervalCheckpoints) == 0 {
			continue // program too short
		}
		tail, err := Tail(full)
		if err != nil {
			t.Fatalf("prog seed %d: %v", progSeed, err)
		}
		rr, err := Replay(prog, tail)
		if err != nil {
			t.Fatalf("prog seed %d tail replay: %v", progSeed, err)
		}
		if err := Verify(tail, rr); err != nil {
			t.Fatalf("prog seed %d tail verify: %v", progSeed, err)
		}
	}
}

// TestFuzzDeterministicGeneration pins that program generation itself is
// seed-deterministic (identical instruction streams).
func TestFuzzDeterministicGeneration(t *testing.T) {
	a := workload.RandomProgram(5, 4)
	b := workload.RandomProgram(5, 4)
	if len(a.Code) != len(b.Code) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Code), len(b.Code))
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, a.Code[i], b.Code[i])
		}
	}
	c := workload.RandomProgram(6, 4)
	if len(a.Code) == len(c.Code) {
		same := true
		for i := range a.Code {
			if a.Code[i] != c.Code[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds generated identical programs")
		}
	}
}

// TestFuzzHardwareCounting reruns generated programs with the
// performance-counter-style CTR (REP iterations tick it) and verifies
// replay under the mirrored convention.
func TestFuzzHardwareCounting(t *testing.T) {
	for progSeed := uint64(60); progSeed < 68; progSeed++ {
		prog := workload.RandomProgram(progSeed, 4)
		cfg := recordCfg(2, func(c *machine.Config) {
			c.MRR.CountRepIterations = true
		})
		b, rr, err := RecordAndVerify(prog, cfg)
		if err != nil {
			t.Fatalf("prog seed %d: %v", progSeed, err)
		}
		if !b.CountRepIterations {
			t.Fatal("bundle did not record the counting convention")
		}
		_ = rr
		// The flag survives serialization.
		loaded, err := UnmarshalBundle(b.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.CountRepIterations {
			t.Fatal("counting convention lost in serialization")
		}
		rr2, err := Replay(prog, loaded)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(loaded, rr2); err != nil {
			t.Fatal(err)
		}
	}
}
