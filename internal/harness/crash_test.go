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
var streamClasses = []FaultClass{FaultTornWrite, FaultStreamCorrupt}

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
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Cells))
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
	for _, want := range []string{"torn-write", "stream-corrupt"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report table misses the %s class", want)
		}
	}
}

// TestWindowedCrashServerWorkloads pins the flight-recorder scenario
// end to end: a long-running server workload streams its recording
// unbounded, the recorder crashes inside the last checkpoint interval,
// and the salvaged stream's tail (its last surviving checkpoint and the
// logs after it) replays until the torn logs run out. The consistency
// cut can drop the checkpoints nearest the crash, so the tail may
// start before the crashed interval.
func TestWindowedCrashServerWorkloads(t *testing.T) {
	const threads = 4
	// Longer instances than the suite's defaults, so the run crosses
	// many checkpoint boundaries.
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
			var buf bytes.Buffer
			full, err := core.StreamRecord(prog, mcfg, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(full.IntervalCheckpoints); n < 5 {
				t.Fatalf("only %d checkpoints; the workload is too short", n)
			}
			_, maxSteps, err := replayPristine(prog, full)
			if err != nil {
				t.Fatal(err)
			}
			// The last interval runs from the last checkpoint segment to
			// the final one; segment i starts at offs[i-1], and its kind
			// byte follows the magic and sequence number.
			data := buf.Bytes()
			offs := segment.Offsets(data)
			last := 0
			for i := 1; i < len(offs); i++ {
				if segment.Kind(data[offs[i-1]+8]) == segment.KindCheckpoint {
					last = i
				}
			}
			mid := (last + len(offs) - 1) / 2
			if mid <= last {
				t.Fatalf("no segment between the last checkpoint (segment %d) and the final one (%d)", last, len(offs)-1)
			}
			// Crash points inside the last interval: at a segment boundary
			// and torn through the segment after it.
			for _, cut := range []int{offs[mid], (offs[mid] + offs[mid+1]) / 2} {
				sv, err := core.SalvageStream(data[:cut])
				if err != nil {
					t.Fatalf("cut at %d/%d: %v", cut, len(data), err)
				}
				if !sv.Bundle.Partial {
					t.Fatalf("cut at %d: torn stream salvaged as complete", cut)
				}
				tail, err := sv.Tail()
				if err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				rr, err := core.ReplayBounded(prog, tail, maxSteps)
				if err != nil {
					t.Fatalf("cut at %d: salvaged tail does not replay: %v", cut, err)
				}
				if rr.Truncation == nil {
					t.Fatalf("cut at %d: tail replay of a torn stream reported no truncation", cut)
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
