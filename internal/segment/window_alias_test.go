package segment_test

import (
	"bytes"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/mem"
	"repro/internal/segment"
)

// driveAliasSession writes one two-epoch, two-interval session into the
// windowed writer, passing mutable as the caller-owned buffers. It returns
// every buffer the caller keeps a handle on, so the test can scribble
// over them after the writes returned.
type aliasBuffers struct {
	recData  []byte
	memImage *mem.Memory
	output   []byte
	chunkPos []int
	finalOut []byte
}

func driveAliasSession(w *segment.Writer) aliasBuffers {
	bufs := aliasBuffers{
		recData:  []byte{0xAA, 0xBB, 0xCC},
		memImage: imageOf([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
		output:   []byte("hello"),
		chunkPos: []int{1, 0},
		finalOut: []byte("final output"),
	}
	w.WriteManifest(sinkManifest())
	w.WriteCommit(sinkCommit(0))
	w.WriteChunkBatch(0, []chunk.Entry{{Size: 3, TS: 5, Reason: chunk.ReasonFlush}})
	w.WriteInputBatch([]capo.Record{{
		Kind: capo.KindSyscall, Thread: 0, TS: 6, Sysno: 7, Ret: 1,
		Addr: 64, Data: bufs.recData,
	}})
	cp := sinkCheckpoint()
	cp.Mem = bufs.memImage
	cp.Output = bufs.output
	cp.ChunkPos = bufs.chunkPos
	w.WriteCheckpoint(cp)
	c1 := sinkCommit(1)
	c1.ChunkCount = []int{0, 1}
	c1.InputCount = []int{0, 0}
	w.WriteCommit(c1)
	w.WriteChunkBatch(1, []chunk.Entry{{Size: 2, TS: 8, Reason: chunk.ReasonFlush}})
	fin := sinkFinal()
	fin.Output = bufs.finalOut
	w.WriteFinal(fin)
	return bufs
}

// TestWindowWriterDoesNotAliasCallerBuffers is the regression test for
// the shallow-copy bug: WriteInputBatch claimed its records were copied
// but only shallow-copied the structs, so a buffered epoch's syscall
// Data kept aliasing the recorder's live buffers (and WriteCheckpoint /
// WriteFinal buffered the caller's payload slices outright). Mutating
// every caller-owned buffer after the writes must leave the rendered
// window byte-identical to an undisturbed twin.
func TestWindowWriterDoesNotAliasCallerBuffers(t *testing.T) {
	pristine := segment.NewWindowWriter(nil, 4)
	driveAliasSession(pristine)
	want, err := pristine.Window()
	if err != nil {
		t.Fatalf("pristine window: %v", err)
	}

	mutated := segment.NewWindowWriter(nil, 4)
	bufs := driveAliasSession(mutated)
	for i := range bufs.recData {
		bufs.recData[i] = 0xFF
	}
	bufs.memImage.Store(0, 0xEEEEEEEEEEEEEEEE)
	copy(bufs.output, "XXXXX")
	bufs.chunkPos[0] = 99
	copy(bufs.finalOut, "CLOBBERED!!!")

	got, err := mutated.Window()
	if err != nil {
		t.Fatalf("mutated-caller window: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rendered window tracked the caller's buffers after the write returned:\n got %d bytes\nwant %d bytes (first divergence at %d)",
			len(got), len(want), firstDiff(got, want))
	}

	// The salvaged window must carry the values as written, not the
	// clobbered ones.
	st, _, err := segment.Salvage(got)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if n := st.InputLog.Len(); n != 1 {
		t.Fatalf("%d input records salvaged, want 1", n)
	}
	if d := st.InputLog.Records[0].Data; !bytes.Equal(d, []byte{0xAA, 0xBB, 0xCC}) {
		t.Fatalf("salvaged record data %x, want aabbcc", d)
	}
	if len(st.Checkpoints) != 1 {
		t.Fatalf("%d checkpoints salvaged, want 1", len(st.Checkpoints))
	}
	if img := st.Checkpoints[0].Mem.AppendBytes(nil, 0, 8); !bytes.Equal(img, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("salvaged checkpoint memory image %x mutated", img)
	}
	if out := st.Final.Output; !bytes.Equal(out, []byte("final output")) {
		t.Fatalf("salvaged final output %q mutated", out)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
