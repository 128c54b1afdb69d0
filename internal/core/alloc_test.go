package core

import (
	"testing"

	"repro/internal/workload"
)

// TestRecordReplayAllocsPerKinstr pins the steady state of the record
// and replay hot loops: growing a run by ~80k instructions may add
// allocations only for the logs themselves, never per instruction,
// chunk or syscall.
func TestRecordReplayAllocsPerKinstr(t *testing.T) {
	measure := func(requests int64) (allocs float64, instrs uint64) {
		prog := workload.KVServer(requests, 64, 4)
		cfg := recordCfg(1, nil)
		cfg.Threads = 4
		allocs = testing.AllocsPerRun(1, func() {
			b, err := Record(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Replay(prog, b)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(b, rr); err != nil {
				t.Fatal(err)
			}
			instrs = 0
			for _, n := range rr.RetiredPerThread {
				instrs += n
			}
		})
		return allocs, instrs
	}
	smallAllocs, smallInstrs := measure(50)
	bigAllocs, bigInstrs := measure(800)
	perKinstr := (bigAllocs - smallAllocs) / (float64(bigInstrs-smallInstrs) / 1000)
	t.Logf("%v allocs for %d instrs, %v allocs for %d instrs: %.2f allocs per extra kinstr",
		smallAllocs, smallInstrs, bigAllocs, bigInstrs, perKinstr)
	if perKinstr > 1 {
		t.Errorf("%.2f allocations per extra kinstr, want <= 1", perKinstr)
	}
}
