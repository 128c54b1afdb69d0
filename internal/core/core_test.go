package core

import (
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/workload"
)

func recordCfg(seed uint64, mut func(*machine.Config)) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1000
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// roundTrip records prog and verifies the replay reproduces it.
func roundTrip(t *testing.T, prog *isa.Program, seed uint64, mut func(*machine.Config)) (*Bundle, *replay.Result) {
	t.Helper()
	b, rr, err := RecordAndVerify(prog, recordCfg(seed, mut))
	if err != nil {
		t.Fatalf("%s seed %d: %v", prog.Name, seed, err)
	}
	return b, rr
}

func TestRoundTripCounter(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		roundTrip(t, workload.Counter(300, 4), seed, nil)
	}
}

func TestRoundTripMutex(t *testing.T) {
	for _, seed := range []uint64{1, 5, 42} {
		roundTrip(t, workload.Mutex(150, 4), seed, nil)
	}
}

func TestRoundTripPingpong(t *testing.T) {
	roundTrip(t, workload.Pingpong(500, 4), 7, nil)
}

func TestRoundTripPrivate(t *testing.T) {
	roundTrip(t, workload.Private(2048, 4), 3, nil)
}

func TestRoundTripIOHeavy(t *testing.T) {
	b, rr := roundTrip(t, workload.IOHeavy(20, 64, 2), 11, nil)
	if b.InputLog.DataBytes() == 0 {
		t.Error("IO-heavy run logged no input data")
	}
	if len(rr.Output) == 0 {
		t.Error("replay produced no output")
	}
}

func TestRoundTripRepCopy(t *testing.T) {
	b, _ := roundTrip(t, workload.RepCopy(4096, 4), 13, nil)
	withResidue := 0
	for _, l := range b.ChunkLogs {
		for _, e := range l.Entries {
			if e.RepResidue > 0 {
				withResidue++
			}
		}
	}
	if withResidue == 0 {
		t.Error("REP workload produced no mid-instruction chunk boundaries")
	}
}

func TestRoundTripSignals(t *testing.T) {
	prog := workload.SignalLoop(30000, 4)
	b, _ := roundTrip(t, prog, 5, func(c *machine.Config) {
		c.SignalPeriodInstrs = 3000
	})
	if b.RecordStats.SignalsDelivered == 0 {
		t.Fatal("no signals delivered during recording")
	}
}

func TestRoundTripManyThreadsFewCores(t *testing.T) {
	roundTrip(t, workload.Counter(200, 8), 21, func(c *machine.Config) {
		c.Cores = 2
		c.Threads = 8
		c.TimeSliceInstrs = 150
	})
}

func TestRoundTripHardwareOnlyMode(t *testing.T) {
	_, _, err := RecordAndVerify(workload.Counter(200, 4),
		recordCfg(9, func(c *machine.Config) { c.Mode = machine.ModeHardwareOnly }))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecordPromotesModeOff(t *testing.T) {
	cfg := machine.DefaultConfig() // ModeOff
	b, err := Record(workload.Counter(50, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.InputLog == nil || len(b.ChunkLogs) != 2 {
		t.Error("recording with promoted mode produced no logs")
	}
}

func TestReplayRejectsWrongProgram(t *testing.T) {
	b, err := Record(workload.Counter(50, 2), recordCfg(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(workload.Mutex(50, 2), b); err == nil {
		t.Error("replaying against a different program succeeded")
	}
}

func TestTamperedChunkLogDiverges(t *testing.T) {
	prog := workload.Counter(300, 4)
	b, err := Record(prog, recordCfg(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one chunk's size mid-log.
	l := b.ChunkLogs[1]
	if l.Len() < 3 {
		t.Skip("log too short to tamper meaningfully")
	}
	l.Entries[l.Len()/2].Size += 3
	rr, err := Replay(prog, b)
	if err == nil {
		// The size change may slide the boundary without tripping a
		// structural check; verification must then catch it.
		if verr := Verify(b, rr); verr == nil {
			t.Error("tampered log replayed and verified clean")
		}
	}
}

func TestDroppedInputRecordDiverges(t *testing.T) {
	prog := workload.IOHeavy(5, 16, 2)
	b, err := Record(prog, recordCfg(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if b.InputLog.Len() < 2 {
		t.Fatal("too few input records")
	}
	b.InputLog.Records = b.InputLog.Records[:b.InputLog.Len()-1]
	rr, err := Replay(prog, b)
	if err == nil {
		if verr := Verify(b, rr); verr == nil {
			t.Error("dropped input record went unnoticed")
		}
	}
}

func TestVerifyDetectsEachField(t *testing.T) {
	prog := workload.Counter(100, 2)
	b, rr, err := RecordAndVerify(prog, recordCfg(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Bundle)
	}{
		{"memory", func(b *Bundle) { b.MemChecksum++ }},
		{"output", func(b *Bundle) { b.Output = append(b.Output, 1) }},
		{"retired", func(b *Bundle) { b.RetiredPerThread[0]++ }},
		{"context-pc", func(b *Bundle) { b.FinalContexts[1].PC++ }},
		{"context-reg", func(b *Bundle) { b.FinalContexts[0].Regs[5]++ }},
	}
	for _, c := range cases {
		mutated := *b
		mutated.Output = append([]byte(nil), b.Output...)
		mutated.RetiredPerThread = append([]uint64(nil), b.RetiredPerThread...)
		mutated.FinalContexts = append([]isa.Context(nil), b.FinalContexts...)
		c.mut(&mutated)
		if err := Verify(&mutated, rr); err == nil {
			t.Errorf("%s: mutation not detected", c.name)
		}
	}
}

func TestBundleMarshalRoundTrip(t *testing.T) {
	prog := workload.IOHeavy(10, 32, 3)
	b, err := Record(prog, recordCfg(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	data := b.Marshal()
	got, err := UnmarshalBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgramName != b.ProgramName || got.Threads != b.Threads ||
		got.MemChecksum != b.MemChecksum || got.StackWordsPerThread != b.StackWordsPerThread {
		t.Error("bundle header mismatch after round trip")
	}
	if string(got.Output) != string(b.Output) {
		t.Error("output mismatch")
	}
	for tid := range b.ChunkLogs {
		if got.ChunkLogs[tid].Len() != b.ChunkLogs[tid].Len() {
			t.Fatalf("thread %d: %d chunks != %d", tid, got.ChunkLogs[tid].Len(), b.ChunkLogs[tid].Len())
		}
		for i := range b.ChunkLogs[tid].Entries {
			if got.ChunkLogs[tid].Entries[i] != b.ChunkLogs[tid].Entries[i] {
				t.Fatalf("thread %d entry %d differs", tid, i)
			}
		}
	}
	if got.InputLog.Len() != b.InputLog.Len() {
		t.Error("input log length mismatch")
	}
	// The unmarshalled bundle must replay and verify too.
	rr, err := Replay(prog, got)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(got, rr); err != nil {
		t.Fatal(err)
	}
}

func TestTraceAccessesGroundTruth(t *testing.T) {
	prog := workload.Mutex(50, 4)
	b, err := Record(prog, recordCfg(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	in, err := ReplayInput(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := replay.Partition(in)
	if err != nil {
		t.Fatal(err)
	}
	var tr replay.AccessTrace
	rr, err := ir.TraceInterval(0, nil, &tr)
	if err != nil {
		t.Fatal(err)
	}
	// Tracing must not perturb the replayed execution.
	if err := Verify(b, rr); err != nil {
		t.Fatal(err)
	}
	var reads, writes, atomics, syncs int
	events := tr.Events
	for _, it := range tr.Items {
		if it.Thread < 0 || int(it.Thread) >= b.Threads {
			t.Fatalf("item thread %d out of range", it.Thread)
		}
		if it.Chunk < 0 || int(it.Chunk) > b.ChunkLogs[it.Thread].Len() {
			t.Fatalf("item chunk %d out of range for thread %d", it.Chunk, it.Thread)
		}
		if it.Events <= 0 || int(it.Events) > len(events) {
			t.Fatalf("item claims %d of %d remaining events", it.Events, len(events))
		}
		events = events[it.Events:]
	}
	if len(events) != 0 {
		t.Fatalf("%d events belong to no item", len(events))
	}
	for _, ev := range tr.Events {
		switch ev.Kind {
		case replay.AccessRead:
			reads++
		case replay.AccessWrite:
			writes++
		case replay.AccessAtomic:
			atomics++
		}
		if ev.Kind.IsSync() {
			syncs++
		}
	}
	// A mutex workload must show plain data accesses plus lock atomics.
	if reads == 0 || writes == 0 {
		t.Errorf("trace missing plain accesses: %d reads, %d writes", reads, writes)
	}
	if atomics == 0 {
		t.Error("mutex workload traced no atomic accesses")
	}
	if syncs < atomics {
		t.Error("IsSync does not cover atomics")
	}
}

func TestBundleSigLogsRoundTrip(t *testing.T) {
	prog := workload.Counter(100, 4)
	b, err := Record(prog, recordCfg(6, func(c *machine.Config) { c.CaptureSignatures = true }))
	if err != nil {
		t.Fatal(err)
	}
	if b.SigLogs == nil {
		t.Fatal("CaptureSignatures recording carries no SigLogs")
	}
	pairs := 0
	for tid := range b.ChunkLogs {
		if len(b.SigLogs[tid]) != b.ChunkLogs[tid].Len() {
			t.Fatalf("thread %d: %d sig pairs for %d chunks", tid, len(b.SigLogs[tid]), b.ChunkLogs[tid].Len())
		}
		pairs += len(b.SigLogs[tid])
	}
	if pairs == 0 {
		t.Fatal("no signature pairs captured")
	}

	got, err := UnmarshalBundle(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for tid := range b.SigLogs {
		if len(got.SigLogs[tid]) != len(b.SigLogs[tid]) {
			t.Fatalf("thread %d sig log length changed", tid)
		}
		for i, p := range b.SigLogs[tid] {
			q := got.SigLogs[tid][i]
			if string(q.Read) != string(p.Read) || string(q.Write) != string(p.Write) {
				t.Fatalf("thread %d sig pair %d differs after round trip", tid, i)
			}
		}
	}

	// A sig log whose count disagrees with the chunk log must be rejected,
	// and a recording without capture must not grow SigLogs.
	bad := *b
	bad.SigLogs = append([][]capo.SigPair{}, b.SigLogs...)
	bad.SigLogs[0] = bad.SigLogs[0][:len(bad.SigLogs[0])-1]
	if _, err := UnmarshalBundle(bad.Marshal()); err == nil {
		t.Error("sig/chunk count mismatch accepted")
	}
	plain, err := Record(prog, recordCfg(6, nil))
	if err != nil {
		t.Fatal(err)
	}
	if plain.SigLogs != nil {
		t.Error("recording without CaptureSignatures has SigLogs")
	}
	replain, err := UnmarshalBundle(plain.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if replain.SigLogs != nil {
		t.Error("sig-free bundle grew SigLogs on unmarshal")
	}
}

func TestUnmarshalBundleRejectsGarbage(t *testing.T) {
	prog := workload.Counter(20, 1)
	b, err := Record(prog, recordCfg(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	good := b.Marshal()
	cases := [][]byte{
		nil,
		good[:3],
		append([]byte("XXXX"), good[4:]...),
		good[:len(good)/2],
		append(append([]byte{}, good...), 7),
	}
	for i, c := range cases {
		if _, err := UnmarshalBundle(c); err == nil {
			t.Errorf("case %d: garbage bundle accepted", i)
		}
	}
	bad := append([]byte{}, good...)
	bad[4] = 99 // version
	if _, err := UnmarshalBundle(bad); err == nil {
		t.Error("bad version accepted")
	}
}

func TestReplayIsSchedulerIndependent(t *testing.T) {
	// Two recordings with different seeds produce different logs; each
	// replays to its own recorded state, not to some shared outcome.
	prog := workload.Mutex(100, 4)
	b1, rr1 := roundTrip(t, prog, 100, nil)
	b2, rr2 := roundTrip(t, prog, 200, nil)
	// Functional result agrees (the program is race-free)...
	if string(b1.Output) != string(b2.Output) {
		t.Error("race-free program output depended on schedule")
	}
	// ...but each replay reproduces its own recording precisely.
	if rr1.MemChecksum != b1.MemChecksum || rr2.MemChecksum != b2.MemChecksum {
		t.Error("replay did not match its own recording")
	}
}

func TestRacyProgramReplaysExactly(t *testing.T) {
	// A program with a genuine data race: threads store their TID to the
	// same word unsynchronized. The final value depends on the schedule;
	// replay must reproduce whichever value was recorded.
	prog := racyProg()
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		b, rr, err := RecordAndVerify(prog, recordCfg(seed, nil))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rr.MemChecksum != b.MemChecksum {
			t.Fatalf("seed %d: race outcome not reproduced", seed)
		}
	}
}

func racyProg() *isa.Program {
	b := isa.NewBuilder("racy")
	// All threads hammer word 0 with tid-dependent values, no sync.
	b.Li(isa.R3, 0)
	b.Li(isa.R4, 400)
	b.Label("loop")
	b.Muli(isa.R5, workloadRegTID(), 1000)
	b.Add(isa.R5, isa.R5, isa.R3)
	b.St(isa.R0, 0, isa.R5) // store to address 0
	b.Ld(isa.R6, isa.R0, 0) // racy read back
	b.Addi(isa.R3, isa.R3, 1)
	b.Bne(isa.R3, isa.R4, "loop")
	b.Halt()
	return b.Build(64, 4, nil)
}

func workloadRegTID() isa.Reg { return workload.RegTID }

func TestChunkLogsConsistentWithRetired(t *testing.T) {
	prog := workload.Counter(250, 4)
	b, _ := roundTrip(t, prog, 31, nil)
	for tid, l := range b.ChunkLogs {
		if l.TotalInstructions() != b.RetiredPerThread[tid] {
			t.Errorf("thread %d: chunk sizes sum to %d, retired %d",
				tid, l.TotalInstructions(), b.RetiredPerThread[tid])
		}
	}
}

func TestConflictChunksRecorded(t *testing.T) {
	b, _ := roundTrip(t, workload.Pingpong(800, 4), 17, nil)
	conflicts := 0
	for _, l := range b.ChunkLogs {
		for _, e := range l.Entries {
			if e.Reason.IsConflict() {
				conflicts++
			}
		}
	}
	if conflicts == 0 {
		t.Error("ping-pong workload recorded no conflict chunks")
	}
}

func TestReplayCountsItems(t *testing.T) {
	b, rr := roundTrip(t, workload.Counter(100, 2), 1, nil)
	var chunks int
	for _, l := range b.ChunkLogs {
		chunks += l.Len()
	}
	if rr.ChunksExecuted != uint64(chunks) {
		t.Errorf("replay executed %d chunks, logs hold %d", rr.ChunksExecuted, chunks)
	}
	if rr.InputsApplied != uint64(b.InputLog.Len()) {
		t.Errorf("replay applied %d inputs, log holds %d", rr.InputsApplied, b.InputLog.Len())
	}
	_ = chunk.ReasonFlush // package used in sibling tests
}
