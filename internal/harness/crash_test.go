package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/segment"
	"repro/internal/workload"
)

// streamClasses are the fault classes that damage a segmented stream.
var streamClasses = []FaultClass{FaultTornWrite, FaultStreamCorrupt, FaultWindowTorn, FaultWindowCorrupt}

func TestCrashSweepSmall(t *testing.T) {
	cfg := Config{
		Workloads:         []string{"counter"},
		Cores:             []int{2},
		Faults:            streamClasses,
		MutationsPerClass: 6,
		Seed:              3,
		SkipMetamorphic:   true,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Silent() != 0 {
		t.Fatalf("silent crash outcomes:\n%s", rep)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	torn := rep.Cells[0]
	if torn.Class != FaultTornWrite {
		t.Fatalf("first cell class %q", torn.Class)
	}
	// Every segment boundary plus the random cuts was exercised, and
	// each landed on a detection point.
	if torn.Injected < 6+3 {
		t.Fatalf("only %d torn-write points", torn.Injected)
	}
	if torn.Detected() != torn.Injected {
		t.Fatalf("torn-write: %d of %d detected", torn.Detected(), torn.Injected)
	}
	if torn.Prefix == 0 {
		t.Fatal("no torn cut yielded a verified prefix replay")
	}
	if torn.Verify != 1 {
		t.Fatalf("whole-stream cut verified %d times, want 1", torn.Verify)
	}
	flips := rep.Cells[1]
	if flips.Class != FaultStreamCorrupt {
		t.Fatalf("second cell class %q", flips.Class)
	}
	if flips.Injected != 6 || flips.Detected() != 6 {
		t.Fatalf("bit flips: %d of %d detected", flips.Detected(), flips.Injected)
	}
	wtorn := rep.Cells[2]
	if wtorn.Class != FaultWindowTorn {
		t.Fatalf("third cell class %q", wtorn.Class)
	}
	if wtorn.Detected() != wtorn.Injected {
		t.Fatalf("window-torn: %d of %d detected:\n%s", wtorn.Detected(), wtorn.Injected, rep)
	}
	if wtorn.Window == 0 {
		t.Fatal("no torn window cut yielded a replayable suffix")
	}
	if wtorn.Verify != 1 {
		t.Fatalf("whole-window cut verified %d times, want 1", wtorn.Verify)
	}
	wflips := rep.Cells[3]
	if wflips.Class != FaultWindowCorrupt {
		t.Fatalf("fourth cell class %q", wflips.Class)
	}
	if wflips.Injected != 6 || wflips.Detected() != 6 {
		t.Fatalf("window bit flips: %d of %d detected:\n%s", wflips.Detected(), wflips.Injected, rep)
	}
	for _, want := range []string{"torn-write", "window-torn", "window-corrupt"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report table misses the %s class", want)
		}
	}
}

// TestWindowedCrashServerWorkloads pins the flight-recorder acceptance
// scenario end to end: a long-running server workload records through a
// K-interval retention window at a fixed disk cost below the unbounded
// stream, the recorder crashes mid-stream (inside the open interval),
// and the dump salvages to a replayable suffix of at least K−1 full
// checkpoint intervals anchored at the surviving base checkpoint.
func TestWindowedCrashServerWorkloads(t *testing.T) {
	const k, threads = 3, 4
	// Longer instances than the suite's defaults, so the run crosses
	// well over K checkpoint boundaries and the window genuinely evicts.
	progs := map[string]*isa.Program{
		"reqserver": workload.ReqServer(96, 4, 16, threads),
		"sigserver": workload.SigServer(400, threads),
	}
	for _, name := range []string{"reqserver", "sigserver"} {
		t.Run(name, func(t *testing.T) {
			prog := progs[name]
			mcfg := recordConfig(2, threads, 21)
			mcfg.FlushEveryChunks = streamFlushEveryChunks
			mcfg.CheckpointEveryInstrs = 2000
			if name == "sigserver" {
				mcfg.SignalPeriodInstrs = 700
			}
			var ub, wb bytes.Buffer
			full, err := core.StreamRecord(prog, mcfg, &ub)
			if err != nil {
				t.Fatal(err)
			}
			wcfg := mcfg
			wcfg.RetainCheckpoints = k
			if _, err := core.StreamRecord(prog, wcfg, &wb); err != nil {
				t.Fatal(err)
			}
			if n := len(full.IntervalCheckpoints); n < k+2 {
				t.Fatalf("only %d checkpoints; the workload is too short to evict", n)
			}
			if wb.Len() >= ub.Len() {
				t.Errorf("window did not bound disk cost: %d windowed vs %d unbounded bytes", wb.Len(), ub.Len())
			}
			offs := segment.Offsets(wb.Bytes())
			if len(offs) < 3 {
				t.Fatalf("window dump has only %d segments", len(offs))
			}
			_, maxSteps, err := replayPristine(prog, full)
			if err != nil {
				t.Fatal(err)
			}
			// Crash points inside the open interval: just before the final
			// segment and torn through it.
			for _, cut := range []int{offs[len(offs)-2], (offs[len(offs)-2] + offs[len(offs)-1]) / 2} {
				sv, err := core.SalvageStream(wb.Bytes()[:cut])
				if err != nil {
					t.Fatalf("cut at %d/%d: %v", cut, wb.Len(), err)
				}
				if sv.Window() != k {
					t.Fatalf("cut at %d: salvaged window K=%d, want %d", cut, sv.Window(), k)
				}
				if _, evicted := sv.WindowBase(); !evicted {
					t.Fatalf("cut at %d: no base checkpoint — window never evicted?", cut)
				}
				if got := len(sv.Bundle.IntervalCheckpoints); got < k-1 {
					t.Fatalf("cut at %d: only %d checkpoint intervals survive, want >= %d", cut, got, k-1)
				}
				if _, err := core.ReplayBounded(prog, sv.Bundle, maxSteps); err != nil {
					t.Fatalf("cut at %d: salvaged window suffix does not replay: %v", cut, err)
				}
			}
		})
	}
}

// TestCrashSweepAcceptance runs the stream classes over the acceptance
// matrix: every segment boundary plus ≥100 random intra-segment cuts
// across four workloads × 1/2/4 cores, with every fault detected and
// zero silent outcomes.
func TestCrashSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := Run(Config{
		Workloads:       []string{"counter", "pingpong", "ioheavy", "reqserver"},
		Cores:           []int{1, 2, 4},
		Faults:          streamClasses,
		Seed:            1,
		SkipMetamorphic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Silent() != 0 {
		t.Fatalf("silent crash outcomes:\n%s", rep)
	}
	randomCuts := 0
	for _, c := range rep.Cells {
		if c.Detected() != c.Injected {
			t.Fatalf("%s × %d × %s: %d of %d detected", c.Workload, c.Cores, c.Class, c.Detected(), c.Injected)
		}
		if c.Class == FaultTornWrite {
			randomCuts += rep.Config.MutationsPerClass
		}
	}
	if randomCuts < 100 {
		t.Fatalf("only %d random cut points swept", randomCuts)
	}
}
