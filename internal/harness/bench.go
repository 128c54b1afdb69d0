package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// benchReplayIters sizes the replay benchmark's counter workload, and
// benchReplayCheckpointEvery its flight-recorder cadence — together they
// yield a recording of a dozen-plus intervals, enough for a 4-worker
// pool to show its speedup over serial replay.
const (
	benchReplayIters           = 50000
	benchReplayCheckpointEvery = 50000
)

// MeasureReplayThroughput records one large checkpointed counter run and
// times core.ReplayWorkers over it runs times on the given worker count
// (0 or 1: serial interval-free replay; >1: checkpoint-partitioned
// parallel replay). It returns the best throughput seen, in recorded
// instructions replayed per second of host wall time; best-of damps
// scheduler noise.
func MeasureReplayThroughput(threads, cores, workers, runs int) (float64, error) {
	prog := workload.Counter(benchReplayIters, threads)
	cfg := recordConfig(cores, threads, 1)
	cfg.CheckpointEveryInstrs = benchReplayCheckpointEvery
	rec, err := core.Record(prog, cfg)
	if err != nil {
		return 0, fmt.Errorf("harness: bench recording for replay failed: %w", err)
	}
	var instrs uint64
	for _, r := range rec.RetiredPerThread {
		instrs += r
	}
	var best float64
	for i := 0; i < max(runs, 1); i++ {
		start := time.Now()
		if _, err := core.ReplayWorkers(prog, rec, workers); err != nil {
			return 0, fmt.Errorf("harness: bench replay failed: %w", err)
		}
		best = max(best, float64(instrs)/time.Since(start).Seconds())
	}
	return best, nil
}
