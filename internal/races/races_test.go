package races

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/allocpin"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/signature"
	"repro/internal/workload"
)

func record(t *testing.T, prog *isa.Program, cores, threads int, seed uint64) *core.Bundle {
	t.Helper()
	return recordEvery(t, prog, cores, threads, seed, 0)
}

// recordEvery is record with a flight-recorder checkpoint every `every`
// instructions (0: none), which the traced replay partitions at.
func recordEvery(t *testing.T, prog *isa.Program, cores, threads int, seed, every uint64) *core.Bundle {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.CheckpointEveryInstrs = every
	cfg.Mode = machine.ModeFull
	cfg.Cores = cores
	cfg.Threads = threads
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1000
	cfg.CaptureSignatures = true
	if threads > cores {
		cfg.TimeSliceInstrs = 5000
	}
	b, err := core.Record(prog, cfg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return b
}

func TestRacyWorkloadConfirmsRaces(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		prog := workload.Racy(150, 4)
		b := record(t, prog, cores, 4, uint64(cores)*7)
		rep, err := Detect(prog, b)
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if len(rep.Candidates) == 0 {
			t.Fatalf("cores=%d: screening produced no candidate pairs", cores)
		}
		if len(rep.Races) == 0 {
			t.Fatalf("cores=%d: no confirmed races in a racy workload (%d candidates)",
				cores, len(rep.Candidates))
		}
		// Reports must be instruction-level: the racing accesses hit the
		// shared word from distinct threads with at least one write.
		shared := prog.Symbols["shared"]
		onShared := false
		for _, r := range rep.Races {
			if r.ThreadA == r.ThreadB {
				t.Errorf("cores=%d: race within one thread: %+v", cores, r)
			}
			if r.KindA != "write" && r.KindB != "write" {
				t.Errorf("cores=%d: read/read pair reported as race: %+v", cores, r)
			}
			if r.PCA < 0 || r.PCA >= len(prog.Code) || r.PCB < 0 || r.PCB >= len(prog.Code) {
				t.Errorf("cores=%d: race PCs out of program range: %+v", cores, r)
			}
			if r.Addr == shared {
				onShared = true
			}
		}
		if !onShared {
			t.Errorf("cores=%d: no confirmed race on the shared counter word", cores)
		}
		if rep.ConfirmedPairs == 0 || rep.ConfirmedPairs > len(rep.Candidates) {
			t.Errorf("cores=%d: confirmed pairs %d out of range for %d candidates",
				cores, rep.ConfirmedPairs, len(rep.Candidates))
		}
		if rep.FalsePositiveRate < 0 || rep.FalsePositiveRate > 1 {
			t.Errorf("cores=%d: FP rate %v out of [0,1]", cores, rep.FalsePositiveRate)
		}
	}
}

func TestRaceFreeWorkloadConfirmsNothing(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		prog := workload.RaceFree(80, 4)
		b := record(t, prog, cores, 4, uint64(cores)*13)
		rep, err := Detect(prog, b)
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if len(rep.Races) != 0 {
			t.Fatalf("cores=%d: %d races confirmed in a race-free workload: %+v",
				cores, len(rep.Races), rep.Races)
		}
		if rep.ConfirmedPairs != 0 {
			t.Errorf("cores=%d: %d confirmed pairs with no races", cores, rep.ConfirmedPairs)
		}
		// Lock-protected conflicts still screen as candidates (the
		// signatures really do intersect); confirmation is what removes
		// them, and the FP rate records that.
		if len(rep.Candidates) > 0 && rep.FalsePositiveRate != 1 {
			t.Errorf("cores=%d: FP rate %v, want 1 with candidates and no races",
				cores, rep.FalsePositiveRate)
		}
	}
}

func TestReportMarshalsCleanly(t *testing.T) {
	// Degenerate and regular reports must survive encoding/json (which
	// rejects NaN/Inf outright).
	prog := workload.RaceFree(20, 2)
	b := record(t, prog, 2, 2, 3)
	rep, err := Detect(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Report{rep, {}} {
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("report does not marshal: %v", err)
		}
	}
}

func TestScreenErrorsNotPanics(t *testing.T) {
	prog := workload.Racy(30, 2)

	// No signature logs.
	plain := record(t, prog, 2, 2, 5)
	plain.SigLogs = nil
	if _, _, err := screen(plain, 0); !errors.Is(err, ErrNoSignatures) {
		t.Errorf("missing sig logs: got %v, want ErrNoSignatures", err)
	}

	// Corrupt signature bytes.
	b := record(t, prog, 2, 2, 5)
	if len(b.SigLogs[0]) == 0 {
		t.Fatal("no sig pairs on thread 0")
	}
	b.SigLogs[0][0].Read = []byte("garbage")
	if _, _, err := screen(b, 0); err == nil {
		t.Error("corrupt signature accepted")
	}

	// Geometry mismatch must error, not panic (Intersects panics on its
	// own).
	b2 := record(t, prog, 2, 2, 5)
	odd := signature.New(signature.Config{Bits: 64, Hashes: 1})
	b2.SigLogs[0][0].Read = odd.Marshal()
	if _, _, err := screen(b2, 0); err == nil {
		t.Error("geometry mismatch accepted")
	}

	// Sig/chunk count mismatch.
	b3 := record(t, prog, 2, 2, 5)
	b3.SigLogs[0] = b3.SigLogs[0][:len(b3.SigLogs[0])-1]
	if _, _, err := screen(b3, 0); err == nil {
		t.Error("sig/chunk count mismatch accepted")
	}
}

func TestDetectParallelMatchesSerial(t *testing.T) {
	// Both phases fan out over the pool (pair screening, per-address
	// confirmation); the report must be deep-equal for every worker count,
	// including a GOMAXPROCS-sized pool.
	for _, mk := range []struct {
		name string
		prog *isa.Program
	}{
		{"racy", workload.Racy(150, 4)},
		{"racefree", workload.RaceFree(80, 4)},
	} {
		prog := mk.prog
		b := record(t, prog, 4, 4, 21)
		serial, err := DetectWorkers(prog, b, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", mk.name, err)
		}
		for _, w := range []int{4, -1} {
			par, err := DetectWorkers(prog, b, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mk.name, w, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s workers=%d: report differs from serial\nserial: %+v\npar:    %+v",
					mk.name, w, serial, par)
			}
		}
		cands, _, err := screen(b, 4)
		if err != nil {
			t.Fatalf("%s screen workers=4: %v", mk.name, err)
		}
		if !reflect.DeepEqual(cands, serial.Candidates) {
			t.Errorf("%s: screen(4) candidates differ from serial Detect's", mk.name)
		}
	}
}

// TestScreenAllocs pins the allocations and allocated bytes of
// screening the racy catalogue workload (4 threads on 4 cores, seed 1)
// serially and on a 4-worker pool. Each ceiling is 25% above the
// largest of five plain runs on go1.24.0.
func TestScreenAllocs(t *testing.T) {
	spec, ok := workload.ByName("racy")
	if !ok {
		t.Fatal("racy workload missing from catalogue")
	}
	b := record(t, spec.Build(4), 4, 4, 1)
	for _, c := range []struct {
		stage               string
		workers             int
		maxAllocs, maxBytes uint64
	}{
		{"screen:racy", 0, 1119, 348_710},
		{"screen:par", 4, 1128, 349_630},
	} {
		t.Run(c.stage, func(t *testing.T) {
			allocpin.Check(t, c.maxAllocs, c.maxBytes, func() {
				if _, _, err := screen(b, c.workers); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
