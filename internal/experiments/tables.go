package experiments

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/chunk"
	"repro/internal/machine"
	"repro/internal/mrr"
	"repro/internal/report"
)

// T1 prints the prototype configuration — the reproduction's analogue of
// the paper's platform table (the original: a Xeon board with four
// FPGA-emulated Pentium cores at 60 MHz, 32 KiB L1s, MESI over FSB,
// MRR signatures, and Capo3 with per-thread CBUFs).
func T1(_ Config, w io.Writer) error {
	mc := machine.DefaultConfig()
	cc := cache.DefaultConfig()
	rc := mrr.DefaultConfig()

	t := report.Table{Title: "Simulated QuickRec prototype configuration", Columns: []string{"parameter", "value"}}
	t.AddRow("cores", report.U(uint64(mc.Cores)))
	t.AddRow("L1 data cache", fmt.Sprintf("%d B (%d sets x %d ways x %d B lines)",
		cc.SizeBytes(), cc.Sets, cc.Ways, cache.LineSize))
	t.AddRow("coherence", "MESI, snooping broadcast bus")
	t.AddRow("clocking", "Lamport clocks piggybacked on all snoop acks")
	t.AddRow("read signature", fmt.Sprintf("%d-bit Bloom, %d hashes, saturates at %d lines",
		rc.ReadSig.Bits, rc.ReadSig.Hashes, rc.ReadSig.MaxInserts))
	t.AddRow("write signature", fmt.Sprintf("%d-bit Bloom, %d hashes, saturates at %d lines",
		rc.WriteSig.Bits, rc.WriteSig.Hashes, rc.WriteSig.MaxInserts))
	t.AddRow("chunk CTR", fmt.Sprintf("terminates at %d instructions", rc.MaxChunkInstr))
	t.AddRow("eviction termination", fmt.Sprintf("%v", rc.TerminateOnEviction))
	t.AddRow("CBUF per thread", fmt.Sprintf("%d B", mc.CbufBytes))
	t.AddRow("chunk log encoding", chunk.Delta{}.Name())
	t.AddRow("preemption quantum", fmt.Sprintf("%d instructions", mc.TimeSliceInstrs))
	_, err := fmt.Fprint(w, t.String())
	return err
}

// T2 prints per-benchmark characteristics under recording at the
// maximum thread count: instruction volume, memory traffic, kernel
// activity and input bytes — the reproduction of the paper's
// benchmark-characteristics table.
func T2(cfg Config, w io.Writer) error {
	threads := cfg.maxThreads()
	t := report.Table{
		Title: fmt.Sprintf("Benchmark characteristics (%d threads)", threads),
		Columns: []string{"benchmark", "kind", "instrs", "mem refs", "syscalls",
			"switches", "input B", "chunks"},
	}
	for _, spec := range suite(cfg) {
		res, err := run(spec, threads, cfg.Seed, machine.ModeFull, nil)
		if err != nil {
			return err
		}
		var chunks uint64
		for _, s := range res.MRRStats {
			chunks += s.Chunks
		}
		t.AddRow(spec.Name, spec.Kind, report.U(res.Retired), report.U(res.MemAccesses),
			report.U(res.Syscalls), report.U(res.CtxSwitches),
			report.U(uint64(res.Session.InputLog().DataBytes())), report.U(chunks))
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}
