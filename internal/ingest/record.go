package ingest

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// RecordWorkloadStream records the named catalogue workload (or
// "fuzz-<seed>" random program) locally and returns its segmented
// stream image — the upload payload the load generator and benchmarks
// feed through the ingest path. The recording streams with a flush
// cadence and flight-recorder checkpoints so the server's verification
// replay can partition it across workers.
func RecordWorkloadStream(name string, threads int, seed uint64) ([]byte, error) {
	prog, err := workload.ProgramByName(name, threads)
	if err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 2
	cfg.Threads = threads
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1000
	cfg.FlushEveryChunks = 8
	cfg.CheckpointEveryInstrs = 2000
	var buf bytes.Buffer
	if _, err := core.StreamRecord(prog, cfg, &buf); err != nil {
		return nil, fmt.Errorf("ingest: record %s: %w", name, err)
	}
	return buf.Bytes(), nil
}
