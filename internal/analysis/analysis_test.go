package analysis

import (
	"encoding/json"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

func TestAnalyzeHandConstructed(t *testing.T) {
	// Two threads, fully serialized: thread 0's chunks at ts 0,2 and
	// thread 1's at ts 1,3, each dependent on the previous.
	l0 := &chunk.Log{Thread: 0}
	l0.Append(chunk.Entry{Size: 100, TS: 0, Reason: chunk.ReasonConflictRAW})
	l0.Append(chunk.Entry{Size: 100, TS: 2, Reason: chunk.ReasonFlush})
	l1 := &chunk.Log{Thread: 1}
	l1.Append(chunk.Entry{Size: 50, TS: 1, Reason: chunk.ReasonSyscall})
	l1.Append(chunk.Entry{Size: 50, TS: 3, Reason: chunk.ReasonFlush})
	in := &capo.InputLog{}
	in.Append(capo.Record{Kind: capo.KindSyscall, Thread: 1, TS: 2})

	r := Analyze([]*chunk.Log{l0, l1}, in)
	if r.TotalInstructions != 300 || r.TotalChunks != 4 || r.TotalInputs != 1 {
		t.Errorf("totals: %d instrs, %d chunks, %d inputs", r.TotalInstructions, r.TotalChunks, r.TotalInputs)
	}
	if r.Threads[0].Conflicts != 1 || r.Threads[1].Syscalls != 1 || r.Threads[1].InputRecords != 1 {
		t.Errorf("per-thread stats: %+v", r.Threads)
	}
	if r.Threads[0].MeanChunk != 100 || r.Threads[1].MeanChunk != 50 {
		t.Errorf("mean chunks: %v %v", r.Threads[0].MeanChunk, r.Threads[1].MeanChunk)
	}
	if r.Reasons.Get(int(chunk.ReasonFlush)) != 2 {
		t.Error("reason counting wrong")
	}
	// Interleaved intervals overlap: concurrency above 1.
	if r.Concurrency <= 1 {
		t.Errorf("concurrency = %v, want > 1 for interleaved chunks", r.Concurrency)
	}
	// 5 items, 4 distinct timestamps (input shares ts=2 with a chunk).
	if got := r.ReplaySerialization; got != 4.0/5.0 {
		t.Errorf("serialization = %v, want 0.8", got)
	}
}

func TestAnalyzeSerialThread(t *testing.T) {
	l0 := &chunk.Log{Thread: 0}
	l0.Append(chunk.Entry{Size: 10, TS: 0, Reason: chunk.ReasonFlush})
	r := Analyze([]*chunk.Log{l0}, nil)
	if r.Concurrency != 1 {
		t.Errorf("single thread concurrency = %v, want 1", r.Concurrency)
	}
	if r.ReplaySerialization != 1 {
		t.Errorf("serialization = %v, want 1", r.ReplaySerialization)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	r := Analyze(nil, nil)
	if r.TotalChunks != 0 || r.Concurrency != 0 {
		t.Errorf("empty report: %+v", r)
	}
}

func TestAnalyzeNegativeThreadRecord(t *testing.T) {
	// A corrupt input log carrying a negative thread id must not panic
	// and must not be attributed to any thread.
	l0 := &chunk.Log{Thread: 0}
	l0.Append(chunk.Entry{Size: 10, TS: 0, Reason: chunk.ReasonFlush})
	in := &capo.InputLog{}
	in.Append(capo.Record{Kind: capo.KindSyscall, Thread: -1, TS: 1})
	in.Append(capo.Record{Kind: capo.KindSyscall, Thread: 0, TS: 2})

	r := Analyze([]*chunk.Log{l0}, in)
	if r.TotalInputs != 2 {
		t.Errorf("TotalInputs = %d, want 2", r.TotalInputs)
	}
	if r.Threads[0].InputRecords != 1 {
		t.Errorf("thread 0 InputRecords = %d, want 1 (negative-id record dropped)", r.Threads[0].InputRecords)
	}
}

func TestReportMarshalsCleanly(t *testing.T) {
	// encoding/json rejects NaN and Inf, so every derived ratio must
	// stay finite even on degenerate recordings: empty logs, a log of
	// zero-size chunks, and a lone input record with no chunks at all.
	degenerate := []struct {
		name string
		logs []*chunk.Log
		in   *capo.InputLog
	}{
		{"empty", nil, nil},
		{"zero-size-chunks", func() []*chunk.Log {
			l := &chunk.Log{Thread: 0}
			l.Append(chunk.Entry{Size: 0, TS: 0, Reason: chunk.ReasonFlush})
			l.Append(chunk.Entry{Size: 0, TS: 1, Reason: chunk.ReasonFlush})
			return []*chunk.Log{l}
		}(), nil},
		{"input-only", nil, func() *capo.InputLog {
			in := &capo.InputLog{}
			in.Append(capo.Record{Kind: capo.KindSyscall, Thread: 0, TS: 0})
			return in
		}()},
	}
	for _, d := range degenerate {
		r := Analyze(d.logs, d.in)
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("%s: report does not marshal: %v", d.name, err)
		}
	}
}

func TestConcurrentPairs(t *testing.T) {
	// Thread 0 chunks at ts 10, 20; thread 1 at ts 10, 30. Chunk
	// intervals are 0:(-inf,10],(10,20] and 1:(-inf,10],(10,30].
	// Pairs: (0,0)-(1,0) and (0,1)-(1,1) overlap outright. The
	// boundary-sharing pairs (0,0)-(1,1) and (0,1)-(1,0) are ordered —
	// one chunk ends exactly where the other begins — and must NOT be
	// reported.
	l0 := &chunk.Log{Thread: 0}
	l0.Append(chunk.Entry{Size: 10, TS: 10, Reason: chunk.ReasonFlush})
	l0.Append(chunk.Entry{Size: 10, TS: 20, Reason: chunk.ReasonFlush})
	l1 := &chunk.Log{Thread: 1}
	l1.Append(chunk.Entry{Size: 10, TS: 10, Reason: chunk.ReasonFlush})
	l1.Append(chunk.Entry{Size: 10, TS: 30, Reason: chunk.ReasonFlush})

	pairs := ConcurrentPairs([]*chunk.Log{l0, l1}, 0)
	want := map[ChunkPair]bool{
		{ThreadA: 0, ChunkA: 0, ThreadB: 1, ChunkB: 0}: true,
		{ThreadA: 0, ChunkA: 1, ThreadB: 1, ChunkB: 1}: true,
	}
	if len(pairs) != len(want) {
		t.Fatalf("got %d pairs %v, want %d", len(pairs), pairs, len(want))
	}
	for _, p := range pairs {
		if !want[p] {
			t.Errorf("unexpected pair %+v", p)
		}
	}
}

func TestConcurrentPairsSerialized(t *testing.T) {
	// Strictly alternating timestamps: thread 0 at ts 0 and 4, thread 1
	// at ts 2 and 6. Intervals 0:(-inf,0],(0,4] vs 1:(-inf,2],(2,6].
	// Both opening chunks are unbounded below, so they count as
	// concurrent with each other even at ts 0; the meat of the test is
	// that the linear merge agrees with a brute-force quadratic check.
	l0 := &chunk.Log{Thread: 0}
	l0.Append(chunk.Entry{Size: 5, TS: 0, Reason: chunk.ReasonFlush})
	l0.Append(chunk.Entry{Size: 5, TS: 4, Reason: chunk.ReasonFlush})
	l1 := &chunk.Log{Thread: 1}
	l1.Append(chunk.Entry{Size: 5, TS: 2, Reason: chunk.ReasonFlush})
	l1.Append(chunk.Entry{Size: 5, TS: 6, Reason: chunk.ReasonFlush})
	logs := []*chunk.Log{l0, l1}

	got := map[ChunkPair]bool{}
	for _, p := range ConcurrentPairs(logs, 0) {
		if got[p] {
			t.Fatalf("duplicate pair %+v", p)
		}
		got[p] = true
	}

	// Brute force with the same (prev, ts] convention, an open lower
	// bound standing for -infinity on each thread's first chunk.
	type span struct {
		lo, hi uint64
		open   bool
	}
	mk := func(l *chunk.Log) []span {
		var out []span
		var prev uint64
		for i, e := range l.Entries {
			out = append(out, span{lo: prev, hi: e.TS, open: i == 0})
			prev = e.TS
		}
		return out
	}
	s0, s1 := mk(l0), mk(l1)
	for i, a := range s0 {
		for j, b := range s1 {
			p := ChunkPair{ThreadA: 0, ChunkA: i, ThreadB: 1, ChunkB: j}
			overlap := (a.open || b.hi > a.lo) && (b.open || a.hi > b.lo)
			if overlap != got[p] {
				t.Errorf("pair %+v: brute force %v, ConcurrentPairs %v", p, overlap, got[p])
			}
		}
	}
}

func TestAnalyzeRealRecordings(t *testing.T) {
	// Parallel kernels should analyze as more concurrent than the
	// serialized microbenchmark behaviour, and conflict-heavy kernels
	// should show higher conflict density than no-sharing ones.
	get := func(name string) *Report {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		cfg := machine.DefaultConfig()
		cfg.Mode = machine.ModeFull
		cfg.Threads = 4
		cfg.Seed = 2
		b, err := core.Record(spec.Build(4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(b.ChunkLogs, b.InputLog)
	}
	private := get("private")
	pingpong := get("pingpong")
	if private.Concurrency < 2 {
		t.Errorf("no-sharing kernel concurrency = %v, want >= 2 (threads run independently)", private.Concurrency)
	}
	var privDensity, pingDensity float64
	for _, th := range private.Threads {
		privDensity += th.ConflictsPerKinstr
	}
	for _, th := range pingpong.Threads {
		pingDensity += th.ConflictsPerKinstr
	}
	if pingDensity < 4*privDensity {
		t.Errorf("conflict density: pingpong %v should dwarf private %v", pingDensity, privDensity)
	}
}
