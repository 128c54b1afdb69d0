// Benchmarks: one per reproduced table/figure (see DESIGN.md's
// experiment index). Each benchmark exercises the code path that
// regenerates the artifact and reports the paper's metric via
// b.ReportMetric, so `go test -bench . -benchmem` reproduces the
// evaluation's headline numbers alongside simulator throughput.
package quickrec_test

import (
	"testing"

	quickrec "repro"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/stats"
	"repro/internal/swrecord"
	"repro/internal/workload"
)

const benchSeed = 1

func mustRun(b *testing.B, spec workload.Spec, threads int, mode machine.RecordingMode) *machine.Result {
	b.Helper()
	cfg := machine.DefaultConfig()
	cfg.Mode = mode
	cfg.Threads = threads
	cfg.Seed = benchSeed
	cfg.KernelSeed = benchSeed + 1
	res, err := machine.New(spec.Build(threads), cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func mustSpec(b *testing.B, name string) workload.Spec {
	b.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("workload %s missing", name)
	}
	return spec
}

// BenchmarkT2Characteristics (Table T2): records the suite once per
// iteration and reports retired instructions per wall-second — the
// simulator's capacity to regenerate the characteristics table.
func BenchmarkT2Characteristics(b *testing.B) {
	spec := mustSpec(b, "fft")
	var retired uint64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, spec, 4, machine.ModeFull)
		retired += res.Retired
	}
	b.ReportMetric(float64(retired)/float64(b.N), "instrs/op")
}

// BenchmarkF1RecordOverhead (Figure F1): native vs full-stack run of
// each SPLASH kernel; reports the recording overhead percentage.
func BenchmarkF1RecordOverhead(b *testing.B) {
	for _, name := range []string{"fft", "radix", "water", "barnes"} {
		spec := mustSpec(b, name)
		b.Run(name, func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				native := mustRun(b, spec, 4, machine.ModeOff)
				full := mustRun(b, spec, 4, machine.ModeFull)
				overhead = 100 * (float64(full.Cycles) - float64(native.Cycles)) / float64(native.Cycles)
			}
			b.ReportMetric(overhead, "overhead%")
		})
	}
}

// BenchmarkF2Breakdown (Figure F2): reports the input-copy share of the
// recording overhead on the input-bound microbenchmark.
func BenchmarkF2Breakdown(b *testing.B) {
	spec := mustSpec(b, "ioheavy")
	var share float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, spec, 4, machine.ModeFull)
		share = 100 * float64(res.Acct.Get(perf.CompRecInputCopy)) / float64(res.Acct.RecordingTotal())
	}
	b.ReportMetric(share, "inputcopy%")
}

// BenchmarkF3LogRate (Figure F3): reports memory-log bytes per
// kilo-instruction for the conflict-heavy radix kernel.
func BenchmarkF3LogRate(b *testing.B) {
	spec := mustSpec(b, "radix")
	var rate float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, spec, 4, machine.ModeFull)
		rate = float64(res.Session.ChunkBytes()) / (float64(res.Retired) / 1000)
	}
	b.ReportMetric(rate, "B/kinstr")
}

// BenchmarkF4LogSplit (Figure F4): reports the input log's share of the
// total log volume on the IO-bound microbenchmark.
func BenchmarkF4LogSplit(b *testing.B) {
	spec := mustSpec(b, "ioheavy")
	var share float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, spec, 4, machine.ModeFull)
		cb, ib := float64(res.Session.ChunkBytes()), float64(res.Session.InputBytes())
		share = 100 * ib / (cb + ib)
	}
	b.ReportMetric(share, "input%")
}

// BenchmarkF5ChunkSizes (Figure F5): reports the mean chunk size on the
// no-sharing kernel (the CTR-bound best case).
func BenchmarkF5ChunkSizes(b *testing.B) {
	spec := mustSpec(b, "private")
	var mean float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, spec, 4, machine.ModeFull)
		var h stats.Histogram
		for _, l := range res.Session.ChunkLogs() {
			for _, e := range l.Entries {
				h.Add(e.Size)
			}
		}
		mean = h.Mean()
	}
	b.ReportMetric(mean, "instrs/chunk")
}

// BenchmarkF6Reasons (Figure F6): reports the conflict share of chunk
// terminations on the ping-pong microbenchmark.
func BenchmarkF6Reasons(b *testing.B) {
	spec := mustSpec(b, "pingpong")
	var conflictShare float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, spec, 4, machine.ModeFull)
		var c stats.Counter
		for _, s := range res.MRRStats {
			c.Merge(&s.Reasons)
		}
		conflicts := c.Get(int(chunk.ReasonConflictRAW)) +
			c.Get(int(chunk.ReasonConflictWAR)) + c.Get(int(chunk.ReasonConflictWAW))
		conflictShare = 100 * float64(conflicts) / float64(c.Total())
	}
	b.ReportMetric(conflictShare, "conflict%")
}

// BenchmarkF7Encoding (Figure F7): encoding throughput and bytes/chunk
// for each chunk-log format over a recorded stream.
func BenchmarkF7Encoding(b *testing.B) {
	spec := mustSpec(b, "radix")
	res := mustRun(b, spec, 4, machine.ModeFull)
	logs := res.Session.ChunkLogs()
	total := 0
	for _, l := range logs {
		total += l.Len()
	}
	for _, enc := range chunk.Encodings() {
		enc := enc
		b.Run(enc.Name(), func(b *testing.B) {
			var buf []byte
			var bytesOut int
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				// Delta streams are per thread: encode each log on its
				// own chain, as the session does.
				for _, l := range logs {
					var prev *chunk.Entry
					for j := range l.Entries {
						buf = enc.Append(buf, l.Entries[j], prev)
						prev = &l.Entries[j]
					}
				}
				bytesOut = len(buf)
			}
			b.ReportMetric(float64(bytesOut)/float64(total), "B/chunk")
		})
	}
}

// BenchmarkF8Replay (Figure F8): record once, then measure replay; the
// reported metric is replayed instructions per wall-second.
func BenchmarkF8Replay(b *testing.B) {
	for _, name := range []string{"fft", "radix"} {
		name := name
		b.Run(name, func(b *testing.B) {
			prog, err := quickrec.BuildWorkload(name, 4)
			if err != nil {
				b.Fatal(err)
			}
			rec, err := quickrec.Record(prog, quickrec.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var steps uint64
			for i := 0; i < b.N; i++ {
				rr, err := quickrec.Replay(prog, rec)
				if err != nil {
					b.Fatal(err)
				}
				steps = rr.Steps
			}
			b.ReportMetric(float64(steps), "steps/op")
		})
	}
}

// BenchmarkA1SoftwareBaseline (Ablation A1): reports the modelled
// software-only recording overhead next to QuickRec's.
func BenchmarkA1SoftwareBaseline(b *testing.B) {
	spec := mustSpec(b, "fft")
	var sw float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, spec, 4, machine.ModeFull)
		sw = 100 * swrecord.Overhead(res, swrecord.DefaultParams())
	}
	b.ReportMetric(sw, "sw-overhead%")
}

// BenchmarkA2SignatureSweep (Ablation A2): chunk count at the smallest
// and largest signature budgets.
func BenchmarkA2SignatureSweep(b *testing.B) {
	spec := mustSpec(b, "fft")
	for _, bits := range []uint{256, 4096} {
		bits := bits
		b.Run(sizeName(bits), func(b *testing.B) {
			var chunks float64
			for i := 0; i < b.N; i++ {
				cfg := machine.DefaultConfig()
				cfg.Mode = machine.ModeHardwareOnly
				cfg.Threads = 4
				cfg.Seed = benchSeed
				cfg.MRR.ReadSig.Bits = bits
				cfg.MRR.ReadSig.MaxInserts = bits / 6
				cfg.MRR.WriteSig.Bits = bits
				cfg.MRR.WriteSig.MaxInserts = bits / 6
				res, err := machine.New(spec.Build(4), cfg).Run()
				if err != nil {
					b.Fatal(err)
				}
				var n uint64
				for _, s := range res.MRRStats {
					n += s.Chunks
				}
				chunks = float64(n)
			}
			b.ReportMetric(chunks, "chunks")
		})
	}
}

// BenchmarkA3RepResidue (Ablation A3): record+replay round trip of the
// REP-splitting workload with residue logging on.
func BenchmarkA3RepResidue(b *testing.B) {
	prog, err := quickrec.BuildWorkload("repcopy", 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := quickrec.RecordAndVerify(prog, quickrec.Options{Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1MachineConstruction (Table T1): cost of building the full
// prototype model.
func BenchmarkT1MachineConstruction(b *testing.B) {
	spec := mustSpec(b, "fft")
	prog := spec.Build(4)
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 4
	for i := 0; i < b.N; i++ {
		_ = machine.New(prog, cfg)
	}
}

// BenchmarkRecordEndToEnd: the full record pipeline through the public
// API, the library's primary operation.
func BenchmarkRecordEndToEnd(b *testing.B) {
	for _, name := range []string{"water", "radix"} {
		name := name
		b.Run(name, func(b *testing.B) {
			prog, err := quickrec.BuildWorkload(name, 4)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := quickrec.Record(prog, quickrec.Options{Seed: benchSeed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBundleRoundTrip: recording serialization round trip
// (encode + decode) on a conflict-heavy and an input-heavy recording —
// the codec hot path the wire layer exists for. Run with -benchmem for
// allocs/op; TestBundleDecoderSteadyStateAllocs (internal/core) pins
// steady-state decode at zero.
func BenchmarkBundleRoundTrip(b *testing.B) {
	for _, name := range []string{"radix", "ioheavy"} {
		name := name
		b.Run(name, func(b *testing.B) {
			prog, err := quickrec.BuildWorkload(name, 4)
			if err != nil {
				b.Fatal(err)
			}
			rec, err := quickrec.Record(prog, quickrec.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data := rec.Marshal()
				if _, err := core.UnmarshalBundle(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(bits uint) string {
	return map[uint]string{256: "256b", 4096: "4096b"}[bits]
}
