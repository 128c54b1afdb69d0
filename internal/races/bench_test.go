package races

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/machine"
	"repro/internal/workload"
)

// BenchmarkConfirm times the confirmation phase alone — the
// access-traced replay feeding the happens-before builder, then every
// address slice — on recordings made with signatures and checkpoints.
// Screening runs once, outside the timer.
func BenchmarkConfirm(b *testing.B) {
	for _, name := range []string{"racy", "barnes"} {
		b.Run(name, func(b *testing.B) {
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
			cands, _, err := screen(rec, 1)
			if err != nil {
				b.Fatalf("screen: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := confirmExec(prog, rec, cands, dispatch.Serial{}, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
