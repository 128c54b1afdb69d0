package races

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// benchRecording records a catalogue workload the way the analyze
// benchmark's fixtures are recorded: 4 threads on 4 cores, signatures
// on, a checkpoint every 20,000 instructions.
func benchRecording(b *testing.B, name string) (*isa.Program, *core.Bundle) {
	b.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("workload %s missing", name)
	}
	prog := spec.Build(4)
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 4
	cfg.Threads = 4
	cfg.Seed = 1
	cfg.CaptureSignatures = true
	cfg.CheckpointEveryInstrs = 20_000
	rec, err := core.Record(prog, cfg)
	if err != nil {
		b.Fatalf("record: %v", err)
	}
	return prog, rec
}

// BenchmarkConfirm times the confirmation phase alone — the
// access-traced replay feeding the happens-before builder, then every
// address slice — serially. Screening runs once, outside the timer.
func BenchmarkConfirm(b *testing.B) {
	for _, name := range []string{"racy", "barnes", "fft"} {
		b.Run(name, func(b *testing.B) {
			prog, rec := benchRecording(b, name)
			cands, _, err := screen(rec, 1)
			if err != nil {
				b.Fatalf("screen: %v", err)
			}
			cs := newCandidateSet(rec, cands)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := confirmExec(prog, rec, cs, 1, nil, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetect times a whole detection — screening, the traced
// replay on the checkpoint partition, and confirmation — at one worker
// (one streamed interval) and two (one traced interval per checkpoint).
func BenchmarkDetect(b *testing.B) {
	for _, name := range []string{"fft", "radix", "racefree"} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				prog, rec := benchRecording(b, name)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := DetectWorkers(prog, rec, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
