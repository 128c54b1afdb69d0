package replay_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

func TestRunUntilPausesExactly(t *testing.T) {
	spec, _ := workload.ByName("counter")
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 4
	cfg.Seed = 5
	b, err := core.Record(spec.Build(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(4)
	const target = 500
	ps, err := core.ReplayUntil(prog, b, 2, target)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Hit {
		t.Fatal("breakpoint not hit")
	}
	if got := ps.Contexts[2].Retired; got != target {
		t.Errorf("paused at %d, want %d", got, target)
	}
	// Deterministic: pausing again gives the identical state.
	ps2, err := core.ReplayUntil(prog, b, 2, target)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Mem.Checksum() != ps2.Mem.Checksum() {
		t.Error("pause states differ across runs")
	}
	for tid := range ps.Contexts {
		if ps.Contexts[tid] != ps2.Contexts[tid] {
			t.Errorf("thread %d context differs across pauses", tid)
		}
	}
}

// TestRunUntilPausesAtEveryPosition pauses replays of repcopy, whose REP
// runs the recorder splits across chunks, at every 17th position of each
// thread and just before and after each REP instruction, with the
// recorder counting REP iterations and without. Each pause must land
// exactly on its position.
func TestRunUntilPausesAtEveryPosition(t *testing.T) {
	spec, _ := workload.ByName("repcopy")
	prog := spec.Build(4)
	for _, countRep := range []bool{false, true} {
		cfg := machine.DefaultConfig()
		cfg.Mode = machine.ModeFull
		cfg.Threads = 4
		cfg.MRR.CountRepIterations = countRep
		b, err := core.Record(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tid, retired := range b.RetiredPerThread {
			var positions []uint64
			for n := uint64(0); n <= retired; n += 17 {
				positions = append(positions, n)
			}
			trace, err := core.Trace(prog, b, tid, 0, retired)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range trace {
				if e.Kind == isa.StepRepRetired {
					positions = append(positions, e.Retired-1, e.Retired)
				}
			}
			if tid%2 == 0 && len(positions) < 3 {
				t.Fatalf("thread %d executed no REP instruction", tid)
			}
			for _, n := range positions {
				ps, err := core.ReplayUntil(prog, b, tid, n)
				if err != nil {
					t.Fatal(err)
				}
				if !ps.Hit || ps.Contexts[tid].Retired != n {
					t.Errorf("count REP iterations %v: thread %d paused at %d (hit %v), want %d",
						countRep, tid, ps.Contexts[tid].Retired, ps.Hit, n)
				}
			}
		}
	}
}

func TestRunUntilPastEndReturnsFinalState(t *testing.T) {
	spec, _ := workload.ByName("counter")
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 2
	b, err := core.Record(spec.Build(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(2)
	ps, err := core.ReplayUntil(prog, b, 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Hit {
		t.Error("impossible breakpoint reported as hit")
	}
	if ps.Contexts[0].Retired != b.RetiredPerThread[0] {
		t.Errorf("final retired = %d, want %d", ps.Contexts[0].Retired, b.RetiredPerThread[0])
	}
	if ps.Mem.Checksum() != b.MemChecksum {
		t.Error("running to the end did not reach the recorded final memory")
	}
}

func TestRunUntilBadThread(t *testing.T) {
	spec, _ := workload.ByName("counter")
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 2
	b, err := core.Record(spec.Build(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReplayUntil(spec.Build(2), b, 9, 10); err == nil {
		t.Error("out-of-range thread accepted")
	}
}

func TestRunUntilOnTailBundle(t *testing.T) {
	spec, _ := workload.ByName("fft")
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 4
	cfg.Seed = 5
	cfg.CheckpointEveryInstrs = 100_000
	b, err := core.Record(spec.Build(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.IntervalCheckpoints) == 0 {
		t.Skip("no checkpoint taken")
	}
	tail, err := core.Tail(b)
	if err != nil {
		t.Fatal(err)
	}
	startRetired := tail.Checkpoint.Contexts[1].Retired
	target := startRetired + 100
	if target > b.RetiredPerThread[1] {
		t.Skip("thread 1 retires too little after the checkpoint")
	}
	ps, err := core.ReplayUntil(spec.Build(4), tail, 1, target)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Hit || ps.Contexts[1].Retired != target {
		t.Errorf("tail pause at %d (hit=%v), want %d", ps.Contexts[1].Retired, ps.Hit, target)
	}
	// Breakpoints before the checkpoint are rejected.
	if startRetired > 0 {
		if _, err := core.ReplayUntil(spec.Build(4), tail, 1, startRetired-1); err == nil {
			t.Error("pre-checkpoint breakpoint accepted on tail bundle")
		}
	}
}

func TestRunUntilMatchesFullReplayPrefix(t *testing.T) {
	// The paused memory at thread t position n must match what a second
	// pause at the same position sees even via a different thread's
	// breakpoint... instead we check consistency with full replay: run
	// to a breakpoint at the very end of thread 0 and compare to the
	// full replay's final state for that thread.
	spec, _ := workload.ByName("water")
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 4
	b, err := core.Record(spec.Build(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(4)
	ps, err := core.ReplayUntil(prog, b, 0, b.RetiredPerThread[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Hit {
		t.Fatal("end-of-thread breakpoint missed")
	}
	got := ps.Contexts[0]
	want := b.FinalContexts[0]
	if got.Retired != want.Retired || got.PC != want.PC {
		t.Errorf("thread 0 at breakpoint: pc=%d retired=%d, recorded final pc=%d retired=%d",
			got.PC, got.Retired, want.PC, want.Retired)
	}
	for r := 0; r < len(got.Regs); r++ {
		if got.Regs[r] != want.Regs[r] {
			t.Errorf("r%d = %#x, recorded final %#x", r, got.Regs[r], want.Regs[r])
		}
	}
}

func TestTraceWindow(t *testing.T) {
	spec, _ := workload.ByName("counter")
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 4
	cfg.Seed = 5
	b, err := core.Record(spec.Build(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(4)
	entries, err := core.Trace(prog, b, 1, 100, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 20 {
		t.Fatalf("trace returned %d entries, want 20", len(entries))
	}
	for i, e := range entries {
		if e.Retired != uint64(101+i) {
			t.Fatalf("entry %d at retired %d, want %d", i, e.Retired, 101+i)
		}
		if e.Instr == "" {
			t.Fatalf("entry %d has no disassembly", i)
		}
	}
	// Deterministic.
	again, err := core.Trace(prog, b, 1, 100, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if entries[i] != again[i] {
			t.Fatalf("trace differs at %d", i)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	spec, _ := workload.ByName("counter")
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 2
	b, err := core.Record(spec.Build(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(2)
	if _, err := core.Trace(prog, b, 9, 0, 10); err == nil {
		t.Error("bad thread accepted")
	}
	if _, err := core.Trace(prog, b, 0, 10, 5); err == nil {
		t.Error("inverted window accepted")
	}
	// Window past end of execution: returns what exists, no error.
	entries, err := core.Trace(prog, b, 0, b.RetiredPerThread[0]-5, b.RetiredPerThread[0]+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Errorf("tail trace = %d entries, want 5", len(entries))
	}
}

func TestTraceCapturesSyscallSteps(t *testing.T) {
	spec, _ := workload.ByName("ioheavy")
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 2
	b, err := core.Record(spec.Build(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(2)
	entries, err := core.Trace(prog, b, 0, 0, b.RetiredPerThread[0])
	if err != nil {
		t.Fatal(err)
	}
	sawSyscall := false
	for _, e := range entries {
		if e.Instr == "syscall" {
			sawSyscall = true
		}
	}
	if !sawSyscall {
		t.Error("trace missed syscall instructions")
	}
}
