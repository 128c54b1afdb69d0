package replay

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// recordConfig is the full recording stack on the default 4-core machine
// with 4 threads.
func recordConfig(seed uint64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 4
	cfg.Seed = seed
	return cfg
}

// recordedInput records a catalogue workload under cfg and returns the
// replay input for it.
func recordedInput(tb testing.TB, name string, cfg machine.Config) Input {
	tb.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("no workload %q", name)
	}
	prog := spec.Build(cfg.Threads)
	res, err := machine.New(prog, cfg).Run()
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return Input{
		Prog: prog, Threads: cfg.Threads,
		ChunkLogs: res.Session.ChunkLogs(), InputLog: res.Session.InputLog(),
		StackWordsPerThread: cfg.StackWordsPerThread,
		CountRepIterations:  cfg.MRR.CountRepIterations,
	}
}

// BenchmarkReplay measures the serial replay hot loop on one recording
// of a simulator-bound kernel and one of a syscall-heavy server.
func BenchmarkReplay(b *testing.B) {
	for _, name := range []string{"barnes", "kvserver"} {
		in := recordedInput(b, name, recordConfig(1))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var steps uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(in)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps)/1000, "ksteps/op")
		})
	}
}
