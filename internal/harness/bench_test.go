package harness

import (
	"runtime"
	"testing"
)

// TestParallelReplaySpeedup is the parallel engine's raison d'être:
// replaying the benchmark recording on a 4-worker pool must be at least
// 1.5x faster than serial replay of the same recording. Gated on having
// 4 real cores to run on, and skipped in -short runs because it is a
// wall-clock measurement.
func TestParallelReplaySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark, skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need 4 CPUs for a meaningful speedup, have %d", runtime.NumCPU())
	}
	serial, err := MeasureReplayThroughput(4, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MeasureReplayThroughput(4, 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	speedup := par / serial
	t.Logf("serial %.2f M instrs/s, 4 workers %.2f M instrs/s: %.2fx",
		serial/1e6, par/1e6, speedup)
	if speedup < 1.5 {
		t.Errorf("4-worker replay speedup %.2fx, want >= 1.5x", speedup)
	}
}
