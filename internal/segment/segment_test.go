package segment_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/segment"
)

// buildStream hand-writes a two-thread, two-epoch stream with a
// checkpoint and a final segment — the shape the machine emits.
func buildStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := segment.NewWriter(&buf)
	w.WriteManifest(testManifest())

	w.WriteCommit(segment.Commit{
		Epoch:      0,
		Watermark:  []uint64{10, 8},
		Exited:     []bool{false, false},
		ChunkCount: []int{2, 1},
		InputCount: []int{1, 0},
	})
	w.WriteChunkBatch(0, []chunk.Entry{
		{Size: 5, TS: 3, Reason: chunk.ReasonConflictRAW},
		{Size: 6, TS: 7, Reason: chunk.ReasonSyscall},
	})
	w.WriteChunkBatch(1, []chunk.Entry{{Size: 9, TS: 4, Reason: chunk.ReasonSwitch}})
	w.WriteInputBatch([]capo.Record{
		{Kind: capo.KindSyscall, Thread: 0, Seq: 0, TS: 9, Sysno: 7, Ret: 42,
			Addr: 0x100, Data: []byte{1, 2, 3}},
	})

	w.WriteCheckpoint(testCheckpoint())

	w.WriteCommit(segment.Commit{
		Epoch:      1,
		Watermark:  []uint64{20, 18},
		Exited:     []bool{false, true},
		ChunkCount: []int{1, 2},
		InputCount: []int{0, 1},
	})
	w.WriteChunkBatch(0, []chunk.Entry{{Size: 4, TS: 12, Reason: chunk.ReasonFlush}})
	w.WriteChunkBatch(1, []chunk.Entry{
		{Size: 2, TS: 9, Reason: chunk.ReasonConflictWAW, RepResidue: 3},
		{Size: 8, TS: 15, Reason: chunk.ReasonFlush},
	})
	w.WriteInputBatch([]capo.Record{
		{Kind: capo.KindSignal, Thread: 1, Seq: 0, TS: 16, Signo: 1, Retired: 30, RepDone: 2},
	})

	w.WriteFinal(&segment.FinalPayload{
		MemChecksum:      0xabcdef,
		Output:           []byte("hello"),
		FinalContexts:    []isa.Context{{PC: 11, Retired: 40, Halted: true}, {PC: 22, Retired: 50, Halted: true}},
		RetiredPerThread: []uint64{40, 50},
	})
	if err := w.Err(); err != nil {
		t.Fatalf("writing stream: %v", err)
	}
	return buf.Bytes()
}

func testManifest() segment.Manifest {
	return segment.Manifest{
		ProgramName:         "demo",
		Threads:             2,
		StackWordsPerThread: 64,
		CountRepIterations:  true,
		EncodingID:          chunk.DeltaID,
		FlushEveryChunks:    4,
	}
}

// imageOf returns a memory holding img (a whole number of words).
func imageOf(img []byte) *mem.Memory {
	m := mem.New(uint64(len(img)))
	m.StoreBytes(0, img)
	return m
}

func testCheckpoint() *capo.Checkpoint {
	img := make([]byte, 64)
	for i := range img {
		img[i] = byte(i * 3)
	}
	return &capo.Checkpoint{
		Snapshot: capo.Snapshot{
			Mem:       imageOf(img),
			Contexts:  []isa.Context{{PC: 5, Retired: 60}, {PC: 6, Retired: 40}},
			Exited:    []bool{false, false},
			SigRegs:   make([][isa.NumRegs]uint64, 2),
			SigPC:     []int{0, 0},
			HandlerPC: 3,
			HandlerOK: true,
			Output:    []byte("he"),
		},
		RetiredAt: 100,
		ChunkPos:  []int{2, 1},
		InputPos:  1,
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	data := buildStream(t)
	st, err := segment.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if st.Manifest != testManifest() {
		t.Fatalf("manifest round trip: got %+v", st.Manifest)
	}
	if got := st.ChunkLogs[0].Len(); got != 3 {
		t.Fatalf("thread 0 chunk count = %d, want 3", got)
	}
	if got := st.ChunkLogs[1].Len(); got != 3 {
		t.Fatalf("thread 1 chunk count = %d, want 3", got)
	}
	if e := st.ChunkLogs[1].Entries[1]; e.TS != 9 || e.RepResidue != 3 {
		t.Fatalf("entry round trip: %+v", e)
	}
	if st.InputLog.Len() != 2 {
		t.Fatalf("input count = %d, want 2", st.InputLog.Len())
	}
	if r := st.InputLog.Records[0]; !bytes.Equal(r.Data, []byte{1, 2, 3}) || r.Ret != 42 {
		t.Fatalf("input record round trip: %+v", r)
	}
	if len(st.Checkpoints) != 1 || st.Checkpoints[0].RetiredAt != 100 || !st.Checkpoints[0].HandlerOK {
		t.Fatalf("checkpoint round trip: %+v", st.Checkpoints)
	}
	if !st.Checkpoints[0].Mem.Equal(testCheckpoint().Mem) {
		t.Fatal("checkpoint memory image changed in round trip")
	}
	if st.Final == nil || st.Final.MemChecksum != 0xabcdef || string(st.Final.Output) != "hello" {
		t.Fatalf("final round trip: %+v", st.Final)
	}
	if st.Final.FinalContexts[1].PC != 22 || st.Final.RetiredPerThread[1] != 50 {
		t.Fatalf("final contexts round trip: %+v", st.Final.FinalContexts)
	}
}

func TestOffsetsCoverStream(t *testing.T) {
	data := buildStream(t)
	offs := segment.Offsets(data)
	if len(offs) != 11 { // manifest + 2×(commit + 2 chunk batches + input) + checkpoint + final
		t.Fatalf("segment count = %d, want 11", len(offs))
	}
	if offs[len(offs)-1] != len(data) {
		t.Fatalf("last offset %d != stream length %d", offs[len(offs)-1], len(data))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("offsets not increasing: %v", offs)
		}
	}
}

// checkPrefix asserts that a salvaged stream is an entry-wise prefix of
// the intact one, with the input log a per-thread prefix.
func checkPrefix(t *testing.T, full, got *segment.Stream) {
	t.Helper()
	for th, l := range got.ChunkLogs {
		ref := full.ChunkLogs[th].Entries
		if len(l.Entries) > len(ref) {
			t.Fatalf("thread %d: salvaged %d entries, original has %d", th, len(l.Entries), len(ref))
		}
		for i, e := range l.Entries {
			if e != ref[i] {
				t.Fatalf("thread %d entry %d: salvaged %+v != original %+v", th, i, e, ref[i])
			}
		}
	}
	for th := range got.ChunkLogs {
		mine := got.InputLog.PerThread(th)
		ref := full.InputLog.PerThread(th)
		if len(mine) > len(ref) {
			t.Fatalf("thread %d: salvaged %d input records, original has %d", th, len(mine), len(ref))
		}
		for i, r := range mine {
			if r.String() != ref[i].String() || !bytes.Equal(r.Data, ref[i].Data) {
				t.Fatalf("thread %d input %d: salvaged %+v != original %+v", th, i, r, ref[i])
			}
		}
	}
}

func TestSalvageEveryTornCut(t *testing.T) {
	data := buildStream(t)
	full, err := segment.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	offs := segment.Offsets(data)
	manifestEnd := offs[0]

	for cut := 1; cut <= len(data); cut++ {
		st, rep, err := segment.Salvage(data[:cut])
		if cut < manifestEnd {
			if err == nil {
				t.Fatalf("cut %d: expected no-manifest error", cut)
			}
			if !errors.Is(err, chunk.ErrTruncated) && !errors.Is(err, chunk.ErrCorrupt) {
				t.Fatalf("cut %d: error %v wraps neither shared sentinel", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: Salvage failed: %v", cut, err)
		}
		if rep.BytesKept > cut {
			t.Fatalf("cut %d: kept %d bytes beyond the cut", cut, rep.BytesKept)
		}
		if rep.Complete != (cut == len(data)) {
			t.Fatalf("cut %d: Complete=%v", cut, rep.Complete)
		}
		checkPrefix(t, full, st)
		for _, cp := range st.Checkpoints {
			for th, pos := range cp.ChunkPos {
				if pos > st.ChunkLogs[th].Len() {
					t.Fatalf("cut %d: checkpoint position %d beyond salvaged log %d", cut, pos, st.ChunkLogs[th].Len())
				}
			}
		}
	}
}

func TestSalvageBitFlipsNeverYieldWrongData(t *testing.T) {
	data := buildStream(t)
	full, err := segment.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	offs := segment.Offsets(data)
	segOf := func(off int) int {
		for i, end := range offs {
			if off < end {
				return i
			}
		}
		return len(offs)
	}

	detected := 0
	for i := 0; i < len(data); i++ {
		for b := 0; b < 8; b++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << b
			st, rep, err := segment.Salvage(mut)
			if err != nil {
				// Damage inside the manifest segment: correctly refused.
				if segOf(i) != 0 {
					t.Fatalf("byte %d bit %d: unexpected salvage error %v", i, b, err)
				}
				detected++
				continue
			}
			// The corrupted segment and everything after it must be gone.
			if rep.SegmentsKept > segOf(i) {
				t.Fatalf("byte %d bit %d: kept %d segments, corruption is in segment %d",
					i, b, rep.SegmentsKept, segOf(i))
			}
			detected++
			checkPrefix(t, full, st)
		}
	}
	if want := len(data) * 8; detected != want {
		t.Fatalf("detected %d of %d single-bit corruptions", detected, want)
	}
}

// tornEpochStream writes a stream whose last epoch's commit promises a
// thread-0 batch that never arrives (the writer "died" right after the
// commit). Thread 1 exited back in epoch 0 when exited1 is set.
func tornEpochStream(t *testing.T, exited1 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := segment.NewWriter(&buf)
	w.WriteManifest(testManifest())
	w.WriteCommit(segment.Commit{
		Epoch:      0,
		Watermark:  []uint64{10, 5},
		Exited:     []bool{false, exited1},
		ChunkCount: []int{2, 1},
		InputCount: []int{0, 0},
	})
	w.WriteChunkBatch(0, []chunk.Entry{
		{Size: 5, TS: 3, Reason: chunk.ReasonConflictRAW},
		{Size: 6, TS: 7, Reason: chunk.ReasonSwitch},
	})
	w.WriteChunkBatch(1, []chunk.Entry{{Size: 9, TS: 4, Reason: chunk.ReasonFlush}})
	w.WriteCommit(segment.Commit{
		Epoch:      1,
		Watermark:  []uint64{20, 5},
		Exited:     []bool{false, exited1},
		ChunkCount: []int{1, 0},
		InputCount: []int{0, 0},
	})
	// Thread 0's epoch-1 batch is where the writer died.
	if err := w.Err(); err != nil {
		t.Fatalf("writing stream: %v", err)
	}
	return buf.Bytes()
}

func TestSalvageHorizonCut(t *testing.T) {
	st, rep, err := segment.Salvage(tornEpochStream(t, false))
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if rep.Complete {
		t.Fatal("torn stream reported complete")
	}
	// Epoch 1 is incomplete for thread 0, freezing its completeness at
	// epoch 0's watermark 10; thread 1's watermark is 5. The horizon cut
	// at min(10,5)=5 must drop thread 0's TS-7 entry even though the
	// segment carrying it was intact.
	if rep.Horizon != 5 {
		t.Fatalf("horizon = %d, want 5", rep.Horizon)
	}
	if got := st.ChunkLogs[0].Len(); got != 1 {
		t.Fatalf("thread 0 kept %d entries, want 1 (TS 3)", got)
	}
	if got := st.ChunkLogs[1].Len(); got != 1 {
		t.Fatalf("thread 1 kept %d entries, want 1", got)
	}
	if rep.DroppedEntries != 1 {
		t.Fatalf("dropped %d entries, want 1", rep.DroppedEntries)
	}
}

func TestSalvageExitedThreadUnconstrained(t *testing.T) {
	// Same torn shape, but thread 1 exited with all its data retained: it
	// no longer constrains the horizon, which is then thread 0's own
	// completeness watermark 10 — both its epoch-0 entries survive.
	st, rep, err := segment.Salvage(tornEpochStream(t, true))
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if rep.Horizon != 10 {
		t.Fatalf("horizon = %d, want thread 0's epoch-0 watermark 10", rep.Horizon)
	}
	if got := st.ChunkLogs[0].Len(); got != 2 {
		t.Fatalf("thread 0 kept %d entries, want 2", got)
	}
	if got := st.ChunkLogs[1].Len(); got != 1 {
		t.Fatalf("thread 1 kept %d entries, want 1", got)
	}
	if rep.DroppedEntries != 0 {
		t.Fatalf("dropped %d entries, want 0", rep.DroppedEntries)
	}
}

func TestSalvageRejectsReorderedSegments(t *testing.T) {
	data := buildStream(t)
	offs := segment.Offsets(data)
	// Swap the two chunk-batch segments of epoch 0 (segments 2 and 3).
	mut := append([]byte(nil), data[:offs[1]]...)
	mut = append(mut, data[offs[2]:offs[3]]...)
	mut = append(mut, data[offs[1]:offs[2]]...)
	mut = append(mut, data[offs[3]:]...)
	_, rep, err := segment.Salvage(mut)
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if rep.SegmentsKept > 2 {
		t.Fatalf("kept %d segments past a sequence break", rep.SegmentsKept)
	}
}

func TestSalvageRejectsDuplicateSegment(t *testing.T) {
	data := buildStream(t)
	offs := segment.Offsets(data)
	// Duplicate epoch 0's thread-0 chunk batch (segment 2).
	mut := append([]byte(nil), data[:offs[2]]...)
	mut = append(mut, data[offs[1]:offs[2]]...)
	mut = append(mut, data[offs[2]:]...)
	_, rep, err := segment.Salvage(mut)
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if rep.SegmentsKept > 3 {
		t.Fatalf("kept %d segments past a duplicated sequence number", rep.SegmentsKept)
	}
	if rep.Complete {
		t.Fatal("stream with duplicate segment reported complete")
	}
}

func TestTypedErrors(t *testing.T) {
	if _, _, err := segment.Salvage(nil); !errors.Is(err, chunk.ErrTruncated) {
		t.Fatalf("empty stream: %v does not wrap the shared truncation sentinel", err)
	}
	garbage := bytes.Repeat([]byte{0x5a}, 64)
	if _, _, err := segment.Salvage(garbage); !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("garbage stream: %v does not wrap the shared corruption sentinel", err)
	}
	data := buildStream(t)
	if _, err := segment.Decode(data[:len(data)-3]); !errors.Is(err, chunk.ErrTruncated) {
		t.Fatalf("torn stream Decode: %v does not wrap the truncation sentinel", err)
	}
	// A short trailing fragment is indistinguishable from a torn header.
	if _, err := segment.Decode(append(append([]byte(nil), data...), 0xff)); !errors.Is(err, chunk.ErrTruncated) {
		t.Fatalf("trailing-fragment Decode: %v does not wrap the truncation sentinel", err)
	}
	// A full trailing frame with a bad magic is corruption.
	garbageFrame := bytes.Repeat([]byte{0xff}, 32)
	if _, err := segment.Decode(append(append([]byte(nil), data...), garbageFrame...)); !errors.Is(err, chunk.ErrCorrupt) {
		t.Fatalf("trailing-garbage Decode: %v does not wrap the corruption sentinel", err)
	}
	if !errors.Is(segment.ErrTruncated, chunk.ErrTruncated) || !errors.Is(segment.ErrCorrupt, chunk.ErrCorrupt) {
		t.Fatal("segment sentinels do not wrap the shared chunk sentinels")
	}
}

func TestSalvageCompleteStreamNoCut(t *testing.T) {
	data := buildStream(t)
	_, rep, err := segment.Salvage(data)
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if !rep.Complete || rep.Reason != "" || rep.Horizon != math.MaxUint64 ||
		rep.DroppedEntries != 0 || rep.DroppedRecords != 0 {
		t.Fatalf("intact stream salvage report: %+v", rep)
	}
	if rep.BytesKept != len(data) {
		t.Fatalf("kept %d of %d bytes of an intact stream", rep.BytesKept, len(data))
	}
}

// TestCompressedKindRejected pins the retired compressed-segment marker:
// a CRC-valid KindChunk|0x80 segment is an unknown kind, so strict
// Decode fails with ErrCorrupt and Salvage cuts just before it.
func TestCompressedKindRejected(t *testing.T) {
	data, prefix := compressedKindStream()
	if _, err := segment.Decode(data); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("Decode: %v, want ErrCorrupt", err)
	}
	_, rep, err := segment.Salvage(data)
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	if rep.BytesKept != prefix || rep.SegmentsKept != 2 || rep.Complete {
		t.Fatalf("salvage kept %d bytes in %d segments (complete=%v), want the %d-byte prefix of 2",
			rep.BytesKept, rep.SegmentsKept, rep.Complete, prefix)
	}
}

// TestRetiredWindowManifestRejected pins the retired flight-recorder
// window form: a manifest that sets flag 0x02 (a retention window) or
// 0x06 (a window opening with a base checkpoint) is corrupt, so strict
// Decode fails with ErrCorrupt, and Salvage, left with no usable
// manifest, fails with a typed error.
func TestRetiredWindowManifestRejected(t *testing.T) {
	for _, flags := range []byte{0x02, 0x06} {
		t.Run(fmt.Sprintf("flags=%#02x", flags), func(t *testing.T) {
			data := windowManifestStream(flags)
			if _, err := segment.Decode(data); !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("Decode: %v, want ErrCorrupt", err)
			}
			if _, _, err := segment.Salvage(data); !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("Salvage: %v, want a typed ErrCorrupt", err)
			}
		})
	}
}
