package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/signature"
	"repro/internal/stats"
	"repro/internal/swrecord"
	"repro/internal/workload"
)

// A1 reproduces the paper's motivating comparison: software-only
// instrumentation recording (iDNA/PinPlay style, modelled analytically
// over the identical execution) versus QuickRec's hardware-only and
// full-stack overheads.
func A1(cfg Config, w io.Writer) error {
	threads := cfg.maxThreads()
	t := report.Table{
		Title:   fmt.Sprintf("Recording overhead: QuickRec vs software-only (%d threads)", threads),
		Columns: []string{"benchmark", "hw-only", "full stack", "sw-only (model)", "sw/full"},
	}
	params := swrecord.DefaultParams()
	var fulls, sws []float64
	for _, spec := range suite(cfg) {
		res, err := run(spec, threads, cfg.Seed, machine.ModeFull, nil)
		if err != nil {
			return err
		}
		hw, full := swrecord.HardwareOverhead(res)
		sw := swrecord.Overhead(res, params)
		ratio := 0.0
		if full > 0 {
			ratio = sw / full
		}
		t.AddRow(spec.Name, report.Pct(hw), report.Pct(full), report.Pct(sw), report.F(ratio, 1)+"x")
		if spec.Kind == "splash" {
			fulls = append(fulls, full)
			sws = append(sws, sw)
		}
	}
	if _, err := fmt.Fprint(w, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "SPLASH avg: full stack %s vs software-only %s\n",
		report.Pct(stats.Mean(fulls)), report.Pct(stats.Mean(sws)))
	return err
}

// A2 sweeps the signature budget on a conflict-heavy kernel: smaller
// Bloom filters saturate sooner (shorter chunks, more log) and alias
// more (false conflicts). This is the design-space argument behind the
// prototype's signature sizing.
func A2(cfg Config, w io.Writer) error {
	spec, ok := workload.ByName("fft")
	if !ok {
		return errors.New("fft workload missing")
	}
	threads := cfg.maxThreads()
	t := report.Table{
		Title:   fmt.Sprintf("Signature sweep on fft (%d threads)", threads),
		Columns: []string{"sig bits", "max lines", "chunks", "mean chunk", "sig-ovf share", "false snoop hits"},
	}
	for _, bits := range []uint{256, 512, 1024, 2048, 4096} {
		bits := bits
		maxInserts := bits / 6 // keep expected false-positive rate roughly constant
		res, err := run(spec, threads, cfg.Seed, machine.ModeHardwareOnly, func(c *machine.Config) {
			sc := signature.Config{Bits: bits, Hashes: 2, MaxInserts: maxInserts, TrackExact: true}
			c.MRR.ReadSig = sc
			c.MRR.WriteSig = sc
		})
		if err != nil {
			return err
		}
		var h stats.Histogram
		var reasons stats.Counter
		for _, l := range res.Session.ChunkLogs() {
			for _, e := range l.Entries {
				h.Add(e.Size)
			}
		}
		var falseHits uint64
		for _, s := range res.MRRStats {
			reasons.Merge(&s.Reasons)
			falseHits += s.SigFalseHits
		}
		t.AddRow(report.U(uint64(bits)), report.U(uint64(maxInserts)), report.U(h.Count()),
			report.F(h.Mean(), 1),
			report.Pct(reasons.Fraction(int(chunk.ReasonSigOverflow))),
			report.U(falseHits))
	}
	if _, err := fmt.Fprint(w, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "note: smaller signatures => earlier saturation => shorter chunks and a larger log")
	return err
}

// A3 demonstrates why the hardware logs REP-instruction residues: with
// residue logging disabled (the ablation), a chunk boundary inside a
// REPMOVS cannot be positioned during replay and the run diverges or
// verifies dirty; with it enabled, replay is exact.
func A3(cfg Config, w io.Writer) error {
	spec, ok := workload.ByName("repcopy")
	if !ok {
		return errors.New("repcopy workload missing")
	}
	threads := cfg.maxThreads()
	t := report.Table{
		Title:   "REP residue ablation on repcopy (5 schedules each)",
		Columns: []string{"residue logging", "rep-split chunks", "exact", "diverged/mismatched"},
	}
	for _, drop := range []bool{false, true} {
		exact, broken, splits := 0, 0, 0
		for seed := cfg.Seed; seed < cfg.Seed+5; seed++ {
			b, err := recordBundle(spec, threads, seed, func(c *machine.Config) {
				c.MRR.DropRepResidue = drop
			})
			if err != nil {
				return err
			}
			for _, l := range b.ChunkLogs {
				for _, e := range l.Entries {
					if e.RepResidue > 0 {
						splits++
					}
				}
			}
			rr, err := core.Replay(spec.Build(threads), b)
			var dv *replay.DivergenceError
			switch {
			case errors.As(err, &dv):
				broken++
			case err != nil:
				return err
			default:
				if core.Verify(b, rr) != nil {
					broken++
				} else {
					exact++
				}
			}
		}
		mode := "on"
		if drop {
			mode = "off (ablated)"
		}
		t.AddRow(mode, report.U(uint64(splits)), fmt.Sprintf("%d/5", exact), fmt.Sprintf("%d/5", broken))
	}
	if _, err := fmt.Fprint(w, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "without residues the replayer positions split REP instructions wrongly and the run no longer reproduces")
	return err
}

// A5 reproduces the paper's instruction-counting lesson: the recording
// hardware's chunk counter ticks like a performance counter (counting
// every REP iteration), while a software replayer naturally counts
// architecturally retired instructions. If the replayer does not adopt
// the hardware's convention, chunk boundaries cannot be positioned and
// replay breaks; with the convention mirrored, replay is exact.
func A5(cfg Config, w io.Writer) error {
	spec, ok := workload.ByName("repcopy")
	if !ok {
		return errors.New("repcopy workload missing")
	}
	threads := cfg.maxThreads()
	t := report.Table{
		Title:   "Instruction-counting convention ablation on repcopy",
		Columns: []string{"hardware counts", "replayer counts", "replay"},
	}
	// Record with hardware-style counting (REP iterations tick the CTR).
	full, err := recordBundle(spec, threads, cfg.Seed, func(c *machine.Config) {
		c.MRR.CountRepIterations = true
	})
	if err != nil {
		return err
	}
	for _, mirror := range []bool{true, false} {
		b := *full
		b.CountRepIterations = mirror
		verdict := "OK (exact)"
		rr, err := core.Replay(spec.Build(threads), &b)
		var dv *replay.DivergenceError
		switch {
		case errors.As(err, &dv):
			verdict = "DIVERGED: " + dv.Reason
		case err != nil:
			verdict = "ERROR"
		default:
			if core.Verify(&b, rr) != nil {
				verdict = "STATE MISMATCH"
			}
		}
		replayerMode := "iterations (mirrored)"
		if !mirror {
			replayerMode = "architectural (naive)"
		}
		t.AddRow("iterations", replayerMode, verdict)
	}
	if _, err := fmt.Fprint(w, t.String()); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "the replayer must adopt the hardware's counting convention — the paper's x86 counting lesson")
	return err
}

// A4 evaluates the flight-recorder extension (the paper's always-on-RnR
// direction): periodic checkpoints bound the log a replayer needs to the
// tail since the last snapshot. For each kernel we record with
// checkpointing, derive the tail bundle, verify it replays to the
// identical final state, and report the log-volume reduction.
func A4(cfg Config, w io.Writer) error {
	threads := cfg.maxThreads()
	t := report.Table{
		Title:   fmt.Sprintf("Flight recorder: tail bundles vs full logs (%d threads)", threads),
		Columns: []string{"benchmark", "ckpts", "full chunks", "tail chunks", "tail inputs", "tail replay"},
	}
	for _, spec := range splashOnly(cfg) {
		full, err := recordBundle(spec, threads, cfg.Seed, func(c *machine.Config) {
			c.CheckpointEveryInstrs = 60_000
		})
		if err != nil {
			return err
		}
		nCkpts := uint64(len(full.IntervalCheckpoints))
		var fullChunks int
		for _, l := range full.ChunkLogs {
			fullChunks += l.Len()
		}
		if nCkpts == 0 {
			t.AddRow(spec.Name, "0", report.U(uint64(fullChunks)), "-", "-", "(run too short)")
			continue
		}
		tail, err := core.Tail(full)
		if err != nil {
			return err
		}
		var tailChunks int
		for _, l := range tail.ChunkLogs {
			tailChunks += l.Len()
		}
		verdict := "OK (exact)"
		rr, err := core.Replay(spec.Build(threads), tail)
		if err != nil {
			verdict = "ERROR"
		} else if core.Verify(tail, rr) != nil {
			verdict = "MISMATCH"
		}
		t.AddRow(spec.Name, report.U(nCkpts), report.U(uint64(fullChunks)),
			report.U(uint64(tailChunks)), report.U(uint64(tail.InputLog.Len())), verdict)
	}
	if _, err := fmt.Fprint(w, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "replay needs only the post-checkpoint tail: always-on recording with bounded logs")
	return err
}

// A7 runs the offline two-phase data-race detector over recordings of
// the race-classified microbenchmark pair: signature screening finds the
// Lamport-concurrent chunk pairs with intersecting Bloom signatures, and
// happens-before confirmation over an access-traced replay keeps only
// the real races. The surviving fraction is the signatures' measured
// false-positive rate — the aliasing cost of chunk-sized Bloom filters.
func A7(cfg Config, w io.Writer) error {
	t := report.Table{
		Title:   "Offline race detection: screening vs confirmation",
		Columns: []string{"workload", "threads", "chunks", "conc pairs", "candidates", "confirmed", "races", "bloom FP rate"},
	}
	for _, name := range []string{"racy", "racefree"} {
		spec, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("%s workload missing", name)
		}
		for _, threads := range cfg.Threads {
			prog := spec.Build(threads)
			mcfg := machine.DefaultConfig()
			mcfg.Mode = machine.ModeFull
			mcfg.Threads = threads
			mcfg.Seed = cfg.Seed
			mcfg.KernelSeed = cfg.Seed + 1
			mcfg.CaptureSignatures = true
			b, err := core.Record(prog, mcfg)
			if err != nil {
				return fmt.Errorf("%s (threads=%d): %w", name, threads, err)
			}
			rep, err := races.Detect(prog, b)
			if err != nil {
				return fmt.Errorf("%s (threads=%d): %w", name, threads, err)
			}
			t.AddRow(name, report.U(uint64(threads)), report.U(uint64(rep.TotalChunks)),
				report.U(uint64(rep.ConcurrentPairs)), report.U(uint64(len(rep.Candidates))),
				report.U(uint64(rep.ConfirmedPairs)), report.U(uint64(len(rep.Races))),
				report.Pct(rep.FalsePositiveRate))
		}
	}
	if _, err := fmt.Fprint(w, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "bloom screening over-approximates (false positives, never false negatives); replay confirmation only shrinks it")
	return err
}

// A8 measures the checkpoint-partitioned parallel replay engine: each
// benchmark is recorded with flight-recorder checkpoints, then replayed
// serially and on a worker pool. Both replays must verify against the
// recording — parallel replay is bit-identical to serial by
// construction, so the only thing that changes is wall time. Speedup is
// bounded by the interval count and by the host's real core count; on a
// single-CPU host the measurement degenerates to the engine's overhead.
func A8(cfg Config, w io.Writer) error {
	threads := cfg.maxThreads()
	workers := cfg.Workers
	if workers == 0 {
		workers = 4
	}
	t := report.Table{
		Title:   fmt.Sprintf("Parallel interval replay (%d threads, %d workers)", threads, workers),
		Columns: []string{"benchmark", "ckpts", "intervals", "serial ms", "parallel ms", "speedup", "verified"},
	}
	for _, spec := range splashOnly(cfg) {
		full, err := recordBundle(spec, threads, cfg.Seed, func(c *machine.Config) {
			c.CheckpointEveryInstrs = 60_000
		})
		if err != nil {
			return err
		}
		nCkpts := len(full.IntervalCheckpoints)
		if nCkpts == 0 {
			t.AddRow(spec.Name, "0", "1", "-", "-", "-", "(run too short)")
			continue
		}
		prog := spec.Build(threads)
		serialStart := time.Now()
		sr, err := core.ReplayWorkers(prog, full, 1)
		serialMS := time.Since(serialStart).Seconds() * 1e3
		if err != nil {
			return err
		}
		parStart := time.Now()
		pr, err := core.ReplayWorkers(prog, full, workers)
		parMS := time.Since(parStart).Seconds() * 1e3
		if err != nil {
			return err
		}
		verdict := "OK (identical)"
		if core.Verify(full, sr) != nil || core.Verify(full, pr) != nil {
			verdict = "MISMATCH"
		} else if sr.MemChecksum != pr.MemChecksum || sr.Steps != pr.Steps {
			verdict = "DIVERGED"
		}
		t.AddRow(spec.Name, report.U(uint64(nCkpts)), report.U(uint64(nCkpts+1)),
			report.F(serialMS, 2), report.F(parMS, 2), report.F(serialMS/parMS, 2), verdict)
	}
	if _, err := fmt.Fprint(w, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "checkpoints partition the logs exactly; intervals replay concurrently and validate against the next checkpoint")
	return err
}
