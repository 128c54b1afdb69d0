package machine

import (
	"encoding/binary"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/signature"
	"repro/internal/workload"
)

// counterProg builds a program where every thread atomically increments
// a shared counter iters times, all threads barrier, and thread 0 writes
// the final value to fd 1 as 8 little-endian bytes.
func counterProg(iters int64, threads int) *isa.Program {
	var lay mem.Layout
	counter := lay.AllocWords(1)
	barrier := lay.AllocWords(2)

	b := isa.NewBuilder("counter")
	b.Liu(isa.R3, counter)
	b.Li(isa.R4, 0)
	b.Li(isa.R5, iters)
	b.Li(isa.R6, 1)
	b.Label("loop")
	b.Fadd(isa.R7, isa.R3, 0, isa.R6)
	b.Addi(isa.R4, isa.R4, 1)
	b.Bne(isa.R4, isa.R5, "loop")
	b.Liu(isa.R8, barrier)
	workload.EmitBarrier(b, "b0", isa.R8)
	b.Bne(workload.RegTID, isa.R0, "skipwrite")
	b.Ld(isa.R9, isa.R3, 0)
	b.St(workload.RegStack, 0, isa.R9)
	b.Li(isa.RRet, int64(capo.SysWrite))
	b.Li(isa.R11, 1)
	b.Mov(isa.R12, workload.RegStack)
	b.Li(isa.R13, 8)
	b.Syscall()
	b.Label("skipwrite")
	b.Halt()

	prog := b.Build(lay.Size(), threads, nil)
	prog.Symbols["counter"] = counter
	return prog
}

func run(t *testing.T, prog *isa.Program, mut func(*Config)) *Result {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	res, err := New(prog, cfg).Run()
	if err != nil {
		t.Fatalf("run %s: %v", prog.Name, err)
	}
	return res
}

func TestSingleThreadProgram(t *testing.T) {
	prog := counterProg(100, 1)
	res := run(t, prog, nil)
	if got := binary.LittleEndian.Uint64(res.Output); got != 100 {
		t.Errorf("output counter = %d, want 100", got)
	}
	if res.Retired == 0 || res.Cycles == 0 {
		t.Error("no work accounted")
	}
	if len(res.RetiredPerThread) != 1 {
		t.Fatalf("threads = %d, want 1", len(res.RetiredPerThread))
	}
}

func TestSharedCounterAllThreadCounts(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		prog := counterProg(200, threads)
		res := run(t, prog, func(c *Config) { c.Mode = ModeFull; c.Seed = uint64(threads) })
		want := uint64(200 * threads)
		if got := binary.LittleEndian.Uint64(res.Output); got != want {
			t.Errorf("threads=%d: counter = %d, want %d", threads, got, want)
		}
	}
}

func TestFutexLockMutualExclusion(t *testing.T) {
	// Increment a shared variable non-atomically inside a futex lock.
	// Lost updates would expose broken mutual exclusion.
	var lay mem.Layout
	lock := lay.AllocWords(1)
	shared := lay.AllocWords(1)

	const iters = 300
	b := isa.NewBuilder("mutex")
	b.Liu(isa.R3, lock)
	b.Liu(isa.R4, shared)
	b.Li(isa.R5, 0)
	b.Label("loop")
	workload.EmitFutexLock(b, "l", isa.R3)
	b.Ld(isa.R6, isa.R4, 0)
	b.Addi(isa.R6, isa.R6, 1)
	b.St(isa.R4, 0, isa.R6)
	workload.EmitFutexUnlock(b, "l", isa.R3)
	b.Addi(isa.R5, isa.R5, 1)
	b.Li(isa.R7, iters)
	b.Bne(isa.R5, isa.R7, "loop")
	b.Halt()
	prog := b.Build(lay.Size(), 4, nil)

	cfg := DefaultConfig()
	cfg.Mode = ModeFull
	cfg.Seed = 99
	m := New(prog, cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Syscalls == 0 {
		t.Error("futex path never entered the kernel")
	}
	if got := m.Memory().Load(shared); got != 4*iters {
		t.Errorf("shared = %d, want %d (lost updates => broken lock)", got, 4*iters)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var lay mem.Layout
	lock := lay.AllocWords(1)
	shared := lay.AllocWords(1)
	const iters = 200
	b := isa.NewBuilder("spin")
	b.Liu(isa.R3, lock)
	b.Liu(isa.R4, shared)
	b.Li(isa.R5, 0)
	b.Label("loop")
	workload.EmitSpinLock(b, "s", isa.R3)
	b.Ld(isa.R6, isa.R4, 0)
	b.Addi(isa.R6, isa.R6, 1)
	b.St(isa.R4, 0, isa.R6)
	workload.EmitSpinUnlock(b, isa.R3)
	b.Addi(isa.R5, isa.R5, 1)
	b.Li(isa.R7, iters)
	b.Bne(isa.R5, isa.R7, "loop")
	b.Halt()
	prog := b.Build(lay.Size(), 3, nil)
	m := New(prog, DefaultConfig())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Memory().Load(shared); got != 3*iters {
		t.Errorf("shared = %d, want %d", got, 3*iters)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	prog := counterProg(150, 4)
	a := run(t, prog, func(c *Config) { c.Mode = ModeFull; c.Seed = 7 })
	b := run(t, prog, func(c *Config) { c.Mode = ModeFull; c.Seed = 7 })
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.MemChecksum != b.MemChecksum {
		t.Errorf("same seed diverged: cycles %d/%d retired %d/%d checksum %x/%x",
			a.Cycles, b.Cycles, a.Retired, b.Retired, a.MemChecksum, b.MemChecksum)
	}
	if a.Session.ChunkBytes() != b.Session.ChunkBytes() {
		t.Error("chunk logs differ across identical runs")
	}
}

func TestSeedsChangeInterleaving(t *testing.T) {
	prog := counterProg(150, 4)
	a := run(t, prog, func(c *Config) { c.Mode = ModeFull; c.Seed = 1 })
	b := run(t, prog, func(c *Config) { c.Mode = ModeFull; c.Seed = 2 })
	// Functional result identical (counter is atomic), schedule different.
	if string(a.Output) != string(b.Output) {
		t.Error("different seeds changed the functional result")
	}
	if a.Cycles == b.Cycles && a.Session.ChunkBytes() == b.Session.ChunkBytes() {
		t.Log("warning: two seeds produced identical schedules (possible but unlikely)")
	}
}

func TestModesFunctionallyIdentical(t *testing.T) {
	prog := counterProg(150, 4)
	off := run(t, prog, func(c *Config) { c.Mode = ModeOff; c.Seed = 5 })
	hw := run(t, prog, func(c *Config) { c.Mode = ModeHardwareOnly; c.Seed = 5 })
	full := run(t, prog, func(c *Config) { c.Mode = ModeFull; c.Seed = 5 })
	if off.Retired != hw.Retired || hw.Retired != full.Retired {
		t.Errorf("retired differs across modes: %d/%d/%d", off.Retired, hw.Retired, full.Retired)
	}
	if off.MemChecksum != hw.MemChecksum || hw.MemChecksum != full.MemChecksum {
		t.Error("memory image differs across modes")
	}
	if !(off.Cycles <= hw.Cycles && hw.Cycles <= full.Cycles) {
		t.Errorf("cycle ordering violated: off=%d hw=%d full=%d", off.Cycles, hw.Cycles, full.Cycles)
	}
	// Hardware-only overhead must be tiny; full-stack overhead visible.
	hwOverhead := float64(hw.Cycles-off.Cycles) / float64(off.Cycles)
	if hwOverhead > 0.03 {
		t.Errorf("hardware-only overhead %.2f%% too large", hwOverhead*100)
	}
	if full.Acct.SoftwareRecordingTotal() == 0 {
		t.Error("full mode recorded no software cycles")
	}
}

func TestChunkLogsCoverAllRetires(t *testing.T) {
	prog := counterProg(200, 4)
	res := run(t, prog, func(c *Config) { c.Mode = ModeFull; c.Seed = 11 })
	for tid := 0; tid < 4; tid++ {
		log := res.Session.ChunkLog(tid)
		if log.Len() == 0 {
			t.Fatalf("thread %d has no chunks", tid)
		}
		if got, want := log.TotalInstructions(), res.RetiredPerThread[tid]; got != want {
			t.Errorf("thread %d: chunks cover %d instrs, retired %d", tid, got, want)
		}
		// Per-thread timestamps strictly increasing.
		for i := 1; i < log.Len(); i++ {
			if log.Entries[i].TS <= log.Entries[i-1].TS {
				t.Errorf("thread %d: TS not increasing at %d: %v -> %v",
					tid, i, log.Entries[i-1], log.Entries[i])
			}
		}
	}
}

func TestSyscallChunksAndInputRecords(t *testing.T) {
	prog := counterProg(50, 2)
	res := run(t, prog, func(c *Config) { c.Mode = ModeFull })
	sawSyscallReason := false
	for tid := 0; tid < 2; tid++ {
		for _, e := range res.Session.ChunkLog(tid).Entries {
			if e.Reason == chunk.ReasonSyscall {
				sawSyscallReason = true
			}
		}
	}
	if !sawSyscallReason {
		t.Error("no syscall-terminated chunks despite futex barrier")
	}
	in := res.Session.InputLog()
	if in.Len() == 0 {
		t.Fatal("empty input log")
	}
	if uint64(in.Len()) != res.Syscalls {
		t.Errorf("input records = %d, syscalls = %d", in.Len(), res.Syscalls)
	}
}

func TestReadSyscallLogged(t *testing.T) {
	var lay mem.Layout
	buf := lay.AllocWords(8)
	b := isa.NewBuilder("reader")
	b.Li(isa.RRet, int64(capo.SysRead))
	b.Li(isa.R11, 0)
	b.Liu(isa.R12, buf)
	b.Li(isa.R13, 64)
	b.Syscall()
	b.Halt()
	prog := b.Build(lay.Size(), 1, nil)
	res := run(t, prog, func(c *Config) { c.Mode = ModeFull })
	in := res.Session.InputLog()
	var readRec *capo.Record
	for i := range in.Records {
		if in.Records[i].Sysno == capo.SysRead {
			readRec = &in.Records[i]
		}
	}
	if readRec == nil {
		t.Fatal("no read record in input log")
	}
	if len(readRec.Data) != 64 || readRec.Addr != buf || readRec.Ret != 64 {
		t.Errorf("read record = %v", readRec)
	}
	if in.DataBytes() != 64 {
		t.Errorf("DataBytes = %d, want 64", in.DataBytes())
	}
}

func TestPreemptionWithMoreThreadsThanCores(t *testing.T) {
	prog := counterProg(300, 8)
	res := run(t, prog, func(c *Config) {
		c.Mode = ModeFull
		c.Cores = 2
		c.Threads = 8
		c.TimeSliceInstrs = 100
	})
	if got := binary.LittleEndian.Uint64(res.Output); got != 2400 {
		t.Errorf("counter = %d, want 2400", got)
	}
	if res.CtxSwitches == 0 {
		t.Error("no context switches with 8 threads on 2 cores")
	}
	sawSwitch := false
	for tid := 0; tid < 8; tid++ {
		for _, e := range res.Session.ChunkLog(tid).Entries {
			if e.Reason == chunk.ReasonSwitch {
				sawSwitch = true
			}
		}
	}
	if !sawSwitch {
		t.Error("no switch-terminated chunks")
	}
}

// sigProg spins incrementing a private counter; an async signal handler
// bumps a shared word and returns. Thread 0 registers the handler.
func sigProg(iters int64) *isa.Program {
	var lay mem.Layout
	sigCount := lay.AllocWords(1)
	b := isa.NewBuilder("sig")
	b.Bne(workload.RegTID, isa.R0, "work")
	b.LiLabel(isa.R11, "handler")
	b.Li(isa.RRet, int64(capo.SysSigHandler))
	b.Syscall()
	b.Label("work")
	b.Li(isa.R3, 0)
	b.Li(isa.R4, iters)
	b.Label("loop")
	b.Addi(isa.R3, isa.R3, 1)
	b.Bne(isa.R3, isa.R4, "loop")
	b.Halt()
	b.Label("handler")
	b.Liu(isa.R20, sigCount)
	b.Li(isa.R21, 1)
	b.Fadd(isa.R22, isa.R20, 0, isa.R21)
	b.Li(isa.RRet, int64(capo.SysSigReturn))
	b.Syscall() // sigreturn restores the interrupted frame; no code follows
	prog := b.Build(lay.Size(), 2, nil)
	prog.Symbols["sigcount"] = sigCount
	return prog
}

func TestSignalDelivery(t *testing.T) {
	prog := sigProg(20000)
	cfg := DefaultConfig()
	cfg.Mode = ModeFull
	cfg.SignalPeriodInstrs = 2000
	m := New(prog, cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SignalsDelivered == 0 {
		t.Fatal("no signals delivered")
	}
	if got := m.Memory().Load(prog.Symbol("sigcount")); got != res.SignalsDelivered {
		t.Errorf("handler ran %d times, %d signals delivered", got, res.SignalsDelivered)
	}
	sigRecords := 0
	for _, r := range res.Session.InputLog().Records {
		if r.Kind == capo.KindSignal {
			sigRecords++
		}
	}
	if uint64(sigRecords) != res.SignalsDelivered {
		t.Errorf("signal records = %d, delivered = %d", sigRecords, res.SignalsDelivered)
	}
	sawTrap := false
	for tid := 0; tid < 2; tid++ {
		for _, e := range res.Session.ChunkLog(tid).Entries {
			if e.Reason == chunk.ReasonTrap {
				sawTrap = true
			}
		}
	}
	if !sawTrap {
		t.Error("no trap-terminated chunks")
	}
}

func TestRepMovsChunkResidue(t *testing.T) {
	// A big REP copy with a tiny signature forces chunk boundaries inside
	// the instruction, producing entries with RepResidue > 0.
	var lay mem.Layout
	src := lay.AllocWords(4096)
	dst := lay.AllocWords(4096)
	b := isa.NewBuilder("repbig")
	b.Liu(isa.R3, dst)
	b.Liu(isa.R4, src)
	b.Li(isa.R5, 4096)
	b.RepMovs(isa.R3, isa.R4, isa.R5)
	b.Halt()
	prog := b.Build(lay.Size(), 1, nil)

	cfg := DefaultConfig()
	cfg.Mode = ModeFull
	cfg.MRR.ReadSig = signature.Config{Bits: 1024, Hashes: 2, MaxInserts: 32}
	cfg.MRR.WriteSig = signature.Config{Bits: 1024, Hashes: 2, MaxInserts: 32}
	res, err := New(prog, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	log := res.Session.ChunkLog(0)
	withResidue := 0
	var lastResidue uint64
	for _, e := range log.Entries {
		if e.RepResidue > 0 {
			withResidue++
			if e.RepResidue <= lastResidue {
				t.Errorf("residues not increasing: %d after %d", e.RepResidue, lastResidue)
			}
			lastResidue = e.RepResidue
		}
	}
	if withResidue == 0 {
		t.Fatal("no chunks split a REP instruction")
	}
}

func TestSigOverflowReasonAppears(t *testing.T) {
	// Touch many distinct lines per chunk with a small signature.
	var lay mem.Layout
	arr := lay.AllocWords(8 * 1024)
	b := isa.NewBuilder("strider")
	b.Liu(isa.R3, arr)
	b.Li(isa.R4, 0)
	b.Li(isa.R5, 1024)
	b.Label("loop")
	b.St(isa.R3, 0, isa.R4)
	b.Addi(isa.R3, isa.R3, 64)
	b.Addi(isa.R4, isa.R4, 1)
	b.Bne(isa.R4, isa.R5, "loop")
	b.Halt()
	prog := b.Build(lay.Size(), 1, nil)
	cfg := DefaultConfig()
	cfg.Mode = ModeHardwareOnly
	cfg.MRR.WriteSig = signature.Config{Bits: 1024, Hashes: 2, MaxInserts: 24}
	cfg.MRR.ReadSig = signature.Config{Bits: 1024, Hashes: 2, MaxInserts: 24}
	res, err := New(prog, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	found := uint64(0)
	for _, s := range res.MRRStats {
		found += s.Reasons.Get(int(chunk.ReasonSigOverflow))
	}
	if found == 0 {
		t.Error("no signature-overflow chunk terminations")
	}
}

func TestConflictReasonsOnContendedCounter(t *testing.T) {
	prog := counterProg(500, 4)
	res := run(t, prog, func(c *Config) { c.Mode = ModeHardwareOnly; c.Seed = 3 })
	conflicts := uint64(0)
	for _, s := range res.MRRStats {
		conflicts += s.Reasons.Get(int(chunk.ReasonConflictRAW)) +
			s.Reasons.Get(int(chunk.ReasonConflictWAR)) +
			s.Reasons.Get(int(chunk.ReasonConflictWAW))
	}
	if conflicts == 0 {
		t.Error("contended atomic counter produced no conflict chunks")
	}
}

func TestDeadlockDetected(t *testing.T) {
	var lay mem.Layout
	w := lay.AllocWords(1)
	b := isa.NewBuilder("deadlock")
	b.Li(isa.RRet, int64(capo.SysFutexWait))
	b.Liu(isa.R11, w)
	b.Li(isa.R12, 0) // matches: blocks forever
	b.Syscall()
	b.Halt()
	prog := b.Build(lay.Size(), 1, nil)
	_, err := New(prog, DefaultConfig()).Run()
	if err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestStepLimit(t *testing.T) {
	b := isa.NewBuilder("spinforever")
	b.Label("x")
	b.Jmp("x")
	prog := b.Build(64, 1, nil)
	cfg := DefaultConfig()
	cfg.MaxSteps = 1000
	_, err := New(prog, cfg).Run()
	if err == nil {
		t.Fatal("step limit not enforced")
	}
}

func TestExitSyscall(t *testing.T) {
	b := isa.NewBuilder("exiter")
	b.Li(isa.R3, 42)
	workload.EmitExit(b)
	b.Halt() // unreachable
	prog := b.Build(64, 2, nil)
	res := run(t, prog, func(c *Config) { c.Mode = ModeFull })
	if len(res.FinalContexts) != 2 {
		t.Fatalf("contexts = %d", len(res.FinalContexts))
	}
	for tid, ctx := range res.FinalContexts {
		if ctx.Regs[isa.R3] != 42 {
			t.Errorf("thread %d final R3 = %d, want 42", tid, ctx.Regs[isa.R3])
		}
	}
	// Exit records present.
	exits := 0
	for _, r := range res.Session.InputLog().Records {
		if r.Sysno == capo.SysExit {
			exits++
		}
	}
	if exits != 2 {
		t.Errorf("exit records = %d, want 2", exits)
	}
}

func TestRunTwicePanics(t *testing.T) {
	prog := counterProg(10, 1)
	m := New(prog, DefaultConfig())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	m.Run()
}

func TestYieldReschedules(t *testing.T) {
	var lay mem.Layout
	b := isa.NewBuilder("yielder")
	b.Li(isa.R3, 0)
	b.Li(isa.R4, 20)
	b.Label("loop")
	workload.EmitSyscall0(b, capo.SysYield)
	b.Addi(isa.R3, isa.R3, 1)
	b.Bne(isa.R3, isa.R4, "loop")
	b.Halt()
	prog := b.Build(lay.Size()+64, 4, nil)
	res := run(t, prog, func(c *Config) {
		c.Cores = 2
		c.Threads = 4
	})
	if res.CtxSwitches == 0 {
		t.Error("yields caused no context switches")
	}
}

func TestModeHardwareOnlyChargesNoSoftware(t *testing.T) {
	prog := counterProg(100, 2)
	res := run(t, prog, func(c *Config) { c.Mode = ModeHardwareOnly })
	if res.Acct.SoftwareRecordingTotal() != 0 {
		t.Errorf("hw-only charged %d software cycles", res.Acct.SoftwareRecordingTotal())
	}
	if res.Acct.Get(perf.CompRecHardware) == 0 {
		t.Error("hw-only charged no hardware cycles")
	}
	if res.Session == nil || res.Session.ChunkBytes() == 0 {
		t.Error("hw-only mode produced no logs")
	}
}

func TestCheckpointStateCapture(t *testing.T) {
	prog := counterProg(5000, 4)
	cfg := DefaultConfig()
	cfg.Mode = ModeFull
	cfg.Seed = 13
	cfg.CheckpointEveryInstrs = 4000
	m := New(prog, cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) == 0 {
		t.Fatal("no checkpoints taken")
	}
	ck := res.Checkpoints[len(res.Checkpoints)-1]
	if ck.RetiredAt == 0 || ck.RetiredAt > res.Retired {
		t.Errorf("checkpoint position %d outside run of %d", ck.RetiredAt, res.Retired)
	}
	if err := ck.Check(4); err != nil || len(ck.ChunkPos) != 4 {
		t.Fatalf("thread snapshots: %v, %d chunk positions", err, len(ck.ChunkPos))
	}
	var sum uint64
	for t2, ctx := range ck.Contexts {
		sum += ctx.Retired
		if ck.ChunkPos[t2] > res.Session.ChunkLog(t2).Len() {
			t.Errorf("thread %d: chunk pos %d beyond final log %d",
				t2, ck.ChunkPos[t2], res.Session.ChunkLog(t2).Len())
		}
	}
	if sum != ck.RetiredAt {
		t.Errorf("per-thread retired sums to %d, checkpoint says %d", sum, ck.RetiredAt)
	}
	if ck.InputPos > res.Session.InputLog().Len() {
		t.Error("input position beyond final log")
	}
	// The snapshot memory is the architectural image at the boundary: a
	// word like the shared counter must be <= its final value.
	ctr := prog.Symbol("counter")
	snapVal := ck.Mem.Load(ctr)
	finalVal := m.Memory().Load(ctr)
	if snapVal > finalVal {
		t.Errorf("snapshot counter %d exceeds final %d", snapVal, finalVal)
	}
	if snapVal == 0 {
		t.Error("snapshot missed cache-resident dirty data (counter reads 0)")
	}
}

func TestCheckpointDisabledByDefault(t *testing.T) {
	prog := counterProg(500, 2)
	cfg := DefaultConfig()
	cfg.Mode = ModeFull
	res, err := New(prog, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 0 {
		t.Error("checkpoints taken without being configured")
	}
}

// BenchmarkRecord measures the recording hot loop: one full-stack
// recording per iteration of a simulator-bound kernel and of a
// syscall-heavy server, on the default 4-core machine with 4 threads.
func BenchmarkRecord(b *testing.B) {
	for _, name := range []string{"barnes", "kvserver"} {
		spec, _ := workload.ByName(name)
		prog := spec.Build(4)
		cfg := DefaultConfig()
		cfg.Mode = ModeFull
		cfg.Threads = 4
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var retired uint64
			for i := 0; i < b.N; i++ {
				res, err := New(prog, cfg).Run()
				if err != nil {
					b.Fatal(err)
				}
				retired = res.Retired
			}
			b.ReportMetric(float64(retired)/1000, "kinstr/op")
		})
	}
}
