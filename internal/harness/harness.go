// Package harness is the conformance and fault-injection subsystem: it
// turns the record→replay→verify contract into a checked invariant at
// scale.
//
// The paper's core claim is determinism — Capo3 + MRR logs replay a
// multithreaded execution byte-for-byte — and its deployability hinges on
// replay never *silently* diverging. The harness attacks that claim from
// two sides:
//
//   - Metamorphic properties over the workload catalogue and randomly
//     generated programs: recording is deterministic (record twice, get
//     identical bytes), replay reproduces the recorded final state,
//     recordings survive serialization, and replay itself is
//     deterministic.
//
//   - Systematic single-fault injection, in ten fault classes. Eight
//     corrupt serialized chunk logs and Capo input logs: bit flips,
//     truncations, record drops, duplicates, reorderings, chunk-counter
//     lies, header length-field lies and payload corruption. Every
//     *material* fault must surface as an explicit error at one of
//     three detection points — decode, replay (*replay.DivergenceError)
//     or verify — and never as a silent replay success. A mutation that
//     provably does not change the execution (MRR logs are conservative
//     over-approximations, so some perturbations are legal alternative
//     serializations) is classified as benign by replaying it and
//     comparing against the *original* reference state. The other two
//     tear or bit-flip the segmented stream a crashed recorder leaves
//     behind: salvage must fail with a typed error or recover a
//     replayable prefix of the pristine stream's own replay.
//
// The matrix runner sweeps workloads × core counts × fault classes and
// produces a triage Report; cmd/quickconform is its CLI.
package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/workload"
)

// Config parameterises a conformance run.
type Config struct {
	// Workloads names catalogue workloads; an entry "fuzz-<seed>"
	// generates a random program from that seed instead.
	Workloads []string
	// Cores lists the core counts to sweep.
	Cores []int
	// Threads is the thread count for every workload (default 4).
	Threads int
	// Faults lists the fault classes to inject (default AllFaults).
	Faults []FaultClass
	// MutationsPerClass is the number of material faults to place per
	// (workload, cores, class) cell: random cuts or bit flips for a
	// stream class, a torn class also cutting at every segment boundary
	// (default 12).
	MutationsPerClass int
	// RerollBudget bounds the attempts to find a material, non-benign
	// injection site for each mutation slot (default 24).
	RerollBudget int
	// Seed drives both the recording schedules and the injection sites.
	// Every value is honored, including 0 — zero is a valid seed, not a
	// request for the default (DefaultConfig uses 1).
	Seed uint64
	// SkipMetamorphic disables the metamorphic property pass.
	SkipMetamorphic bool
}

// DefaultConfig is the acceptance matrix: four catalogue workloads plus
// a generated program, swept over 1, 2 and 4 cores under every fault
// class.
func DefaultConfig() Config {
	return Config{
		Workloads:         []string{"counter", "pingpong", "ioheavy", "repcopy", "fuzz-11"},
		Cores:             []int{1, 2, 4},
		Threads:           4,
		Faults:            AllFaults(),
		MutationsPerClass: 12,
		RerollBudget:      24,
		Seed:              1,
	}
}

func (c *Config) fill() {
	d := DefaultConfig()
	if len(c.Workloads) == 0 {
		c.Workloads = d.Workloads
	}
	if len(c.Cores) == 0 {
		c.Cores = d.Cores
	}
	if c.Threads <= 0 {
		c.Threads = d.Threads
	}
	if len(c.Faults) == 0 {
		c.Faults = d.Faults
	}
	if c.MutationsPerClass <= 0 {
		c.MutationsPerClass = d.MutationsPerClass
	}
	if c.RerollBudget <= 0 {
		c.RerollBudget = d.RerollBudget
	}
	// Seed is deliberately not defaulted: 0 is a valid seed, and silently
	// substituting 1 would make two distinct configurations alias.
}

// recordConfig builds the machine configuration for one matrix cell.
func recordConfig(cores, threads int, seed uint64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = cores
	cfg.Threads = threads
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1000
	if threads > cores {
		cfg.TimeSliceInstrs = 5000 // force preemption into the logs
	}
	return cfg
}

// Run executes the full conformance matrix and returns the triage
// report. The run itself only errors on misconfiguration (unknown
// workload, failed recording); conformance findings — silent divergences,
// metamorphic failures — are reported in the Report, and Report.OK()
// decides pass/fail.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	rep := &Report{Config: cfg}
	for _, name := range cfg.Workloads {
		prog, err := workload.ProgramByName(name, cfg.Threads)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		for _, cores := range cfg.Cores {
			if err := runCell(cfg, rep, name, prog, cores); err != nil {
				return nil, fmt.Errorf("harness: %s on %d cores: %w", name, cores, err)
			}
		}
	}
	return rep, nil
}

// runCell records one (workload, cores) point, checks the metamorphic
// properties, and sweeps every fault class against the recording. The
// stream classes damage a segmented stream recording of the same point,
// made only when one of them is selected.
func runCell(cfg Config, rep *Report, name string, prog *isa.Program, cores int) error {
	mcfg := recordConfig(cores, cfg.Threads, cfg.Seed)
	rec, err := core.Record(prog, mcfg)
	if err != nil {
		return fmt.Errorf("recording failed: %w", err)
	}
	if !cfg.SkipMetamorphic {
		checkProperties(properties{rep: rep, workload: name, cores: cores}, prog, mcfg, rec)
	}
	_, maxSteps, err := replayPristine(prog, rec)
	if err != nil {
		return err
	}
	origKey := scheduleKey(rec)
	var s *stream

	for ci, class := range cfg.Faults {
		m := &mutator{rng: cfg.Seed ^ hashCell(name, cores, ci)}
		cell := Cell{Workload: name, Cores: cores, Class: class}
		inject := func() (Outcome, string) { return injectOnce(prog, rec, origKey, maxSteps, class, m) }
		if class == FaultTornWrite || class == FaultStreamCorrupt {
			if s == nil {
				if s, err = recordStream(prog, mcfg); err != nil {
					return err
				}
			}
			if class == FaultTornWrite {
				for _, n := range s.offs {
					cell.tally(s.cut(prog, n))
				}
				inject = func() (Outcome, string) { return s.cut(prog, 1+m.pick(len(s.data)-1)) }
			} else {
				inject = func() (Outcome, string) {
					pos := m.pick(len(s.data))
					return s.flip(prog, pos, m.pick(8))
				}
			}
		}
		for slot := 0; slot < cfg.MutationsPerClass; slot++ {
			placed := false
			for attempt := 0; attempt < cfg.RerollBudget && !placed; attempt++ {
				placed = cell.tally(inject())
			}
			if !placed {
				cell.Unplaced++
			}
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return nil
}

// replayPristine replays and verifies an undamaged recording. Its
// result is the reference damaged copies are judged against, and four
// times its steps plus 100,000 is the step budget of their replays, so
// a lied chunk counter cannot hang the harness.
func replayPristine(prog *isa.Program, b *core.Bundle) (*replay.Result, uint64, error) {
	rr, err := core.Replay(prog, b)
	if err != nil {
		return nil, 0, fmt.Errorf("pristine replay failed: %w", err)
	}
	if err := core.Verify(b, rr); err != nil {
		return nil, 0, fmt.Errorf("pristine verify failed: %w", err)
	}
	return rr, rr.Steps*4 + 100_000, nil
}

// hashCell derives a per-cell RNG stream from the matrix coordinates.
func hashCell(name string, cores, class int) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(name) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h = (h ^ uint64(cores)) * 1099511628211
	h = (h ^ uint64(class)) * 1099511628211
	return h
}

// scheduleKey projects a bundle onto its replay-relevant semantics: the
// deterministic global execution order (via replay.ScheduleOf) with the
// fields replay consumes, plus the bundle metadata and the reference
// state verification compares against. Two bundles with equal keys replay
// identically by construction; fields replay ignores (chunk termination
// reasons, signal numbers, record sequence numbers, raw timestamp values
// beyond their ordering) are deliberately excluded.
func scheduleKey(b *core.Bundle) []byte {
	var sb []byte
	app := func(vs ...uint64) {
		for _, v := range vs {
			sb = append(sb, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
	}
	sb = append(sb, b.ProgramName...)
	app(uint64(b.Threads), b.StackWordsPerThread, boolU64(b.CountRepIterations), b.MemChecksum)
	sb = append(sb, b.Output...)
	for _, r := range b.RetiredPerThread {
		app(r)
	}
	for _, ctx := range b.FinalContexts {
		for _, r := range ctx.Regs {
			app(r)
		}
		app(uint64(ctx.PC), ctx.Retired, boolU64(ctx.Halted), boolU64(ctx.RepActive), ctx.RepDone)
	}
	in := replay.Input{
		Prog: nil, Threads: b.Threads, ChunkLogs: b.ChunkLogs, InputLog: b.InputLog,
	}
	for _, it := range replay.ScheduleOf(in) {
		if it.IsChunk {
			app(1, uint64(it.Thread), it.Entry.Size, it.Entry.RepResidue)
			continue
		}
		r := it.Rec
		app(2, uint64(it.Thread), uint64(r.Kind), r.Sysno, r.Ret, r.Addr,
			uint64(len(r.Data)), r.Retired, r.RepDone)
		sb = append(sb, r.Data...)
	}
	return sb
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
