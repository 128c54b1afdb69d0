// Package experiments regenerates the paper's evaluation artifacts —
// every table and figure reconstructed in DESIGN.md's experiment index —
// from the simulated QuickRec prototype. Each experiment returns
// rendered text; cmd/quickbench prints them and EXPERIMENTS.md records
// the measured-versus-paper comparison.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Config parameterises an experiment run.
type Config struct {
	// Threads lists the thread counts to sweep (the paper uses 1, 2, 4).
	Threads []int
	// Seed drives the scheduler; all modes of one comparison share it.
	Seed uint64
	// Scale multiplies workload input sizes (default 1; larger values
	// approach the paper's input regime — see workload.ScaledSuite).
	Scale uint64
	// Seeds averages overhead measurements over this many consecutive
	// scheduler seeds starting at Seed (default 1: single schedule).
	Seeds int
	// Workers is the worker-pool size for the parallel-replay experiment
	// (0 = 4, the prototype's core count; negative = all CPUs).
	Workers int
}

func (c Config) seedList() []uint64 {
	n := c.Seeds
	if n < 1 {
		n = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.Seed + uint64(i)
	}
	return out
}

// DefaultConfig mirrors the paper's sweep.
func DefaultConfig() Config { return Config{Threads: []int{1, 2, 4}, Seed: 1} }

func (c Config) maxThreads() int {
	m := 1
	for _, t := range c.Threads {
		if t > m {
			m = t
		}
	}
	return m
}

// run executes one workload at one thread count in the given mode.
func run(spec workload.Spec, threads int, seed uint64, mode machine.RecordingMode,
	mut func(*machine.Config)) (*machine.Result, error) {
	prog := spec.Build(threads)
	cfg := machine.DefaultConfig()
	cfg.Mode = mode
	cfg.Threads = threads
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1
	if mut != nil {
		mut(&cfg)
	}
	res, err := machine.New(prog, cfg).Run()
	if err != nil {
		return nil, fmt.Errorf("%s (threads=%d, %v): %w", spec.Name, threads, mode, err)
	}
	return res, nil
}

// recordBundle records one workload and returns the replayable bundle.
func recordBundle(spec workload.Spec, threads int, seed uint64,
	mut func(*machine.Config)) (*core.Bundle, error) {
	prog := spec.Build(threads)
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = threads
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1
	if mut != nil {
		mut(&cfg)
	}
	return core.Record(prog, cfg)
}

// Experiment is one runnable evaluation artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Prototype configuration", T1},
		{"T2", "Benchmark characteristics (4 threads, recorded)", T2},
		{"F1", "Recording execution-time overhead", F1},
		{"F2", "Software-stack overhead breakdown", F2},
		{"F3", "Memory-log generation rate", F3},
		{"F4", "Input log vs memory log volume", F4},
		{"F5", "Chunk-size distribution", F5},
		{"F6", "Chunk termination reasons", F6},
		{"F7", "Log encoding comparison", F7},
		{"F8", "Replay validation and relative replay time", F8},
		{"A1", "Software-only recording baseline", A1},
		{"A2", "Signature size vs chunking ablation", A2},
		{"A3", "REP residue logging ablation", A3},
		{"A4", "Flight-recorder checkpointing (always-on RnR extension)", A4},
		{"A5", "Instruction-counting convention ablation", A5},
		{"A6", "Stream framing overhead (crash-consistent streaming extension)", A6},
		{"A7", "Offline data-race detection over recorded logs", A7},
		{"A8", "Checkpoint-partitioned parallel replay speedup", A8},
		{"A10", "Serialization shootout: bundle wire formats vs stdlib strawmen", A10},
		{"A11", "Fleet replay/race-detection cost vs worker count", A11},
	}
}

// ByID finds an experiment (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range All() {
		fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// suite returns the evaluation workloads sorted by kind then name.
func suite(cfg Config) []workload.Spec {
	s := workload.ScaledSuite(cfg.Scale)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Kind != s[j].Kind {
			return s[i].Kind > s[j].Kind // splash first
		}
		return s[i].Name < s[j].Name
	})
	return s
}

// splashOnly filters to the SPLASH-2-like kernels (the paper's suite).
func splashOnly(cfg Config) []workload.Spec {
	var out []workload.Spec
	for _, s := range suite(cfg) {
		if s.Kind == "splash" {
			out = append(out, s)
		}
	}
	return out
}
