package segment_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/segment"
)

// sinkManifest is the two-thread manifest the misuse tests open their
// streams with.
func sinkManifest() segment.Manifest {
	return segment.Manifest{
		ProgramName: "misuse", Threads: 2, StackWordsPerThread: 32,
		EncodingID: chunk.DeltaID, FlushEveryChunks: 4,
	}
}

func sinkCommit(epoch uint64) segment.Commit {
	return segment.Commit{
		Epoch:      epoch,
		Watermark:  []uint64{10, 10},
		Exited:     []bool{false, false},
		ChunkCount: []int{1, 0},
		InputCount: []int{1, 0},
	}
}

func sinkCheckpoint() *capo.Checkpoint {
	return &capo.Checkpoint{
		Snapshot: capo.Snapshot{
			Mem:      imageOf([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
			Contexts: []isa.Context{{PC: 1, Retired: 5}, {PC: 2, Retired: 5}},
			Exited:   []bool{false, false},
			SigRegs:  make([][isa.NumRegs]uint64, 2),
			SigPC:    []int{0, 0},
		},
		RetiredAt: 42,
		ChunkPos:  []int{1, 0},
		InputPos:  1,
	}
}

func sinkFinal() *segment.FinalPayload {
	return &segment.FinalPayload{
		MemChecksum:      7,
		Output:           []byte("out"),
		FinalContexts:    []isa.Context{{PC: 1, Retired: 9, Halted: true}, {PC: 2, Retired: 9, Halted: true}},
		RetiredPerThread: []uint64{9, 9},
	}
}

// writeValidStream drives one complete, well-formed session into the
// writer: manifest, one epoch, a checkpoint, and the final state.
func writeValidStream(s *segment.Writer) {
	s.WriteManifest(sinkManifest())
	s.WriteCommit(sinkCommit(0))
	s.WriteChunkBatch(0, []chunk.Entry{{Size: 3, TS: 5, Reason: chunk.ReasonFlush}})
	s.WriteInputBatch([]capo.Record{{Kind: capo.KindSyscall, Thread: 0, TS: 6, Sysno: 7, Ret: 1, Data: []byte{9}}})
	s.WriteCheckpoint(sinkCheckpoint())
	s.WriteFinal(sinkFinal())
}

// TestSinkMisuseOrdering sweeps out-of-order and post-Close call
// sequences over the Writer and requires a sticky usage error from each.
// Before the Writer grew a closed state, every "after close" row passed
// silently on it — the recorder could keep appending segments to a
// stream whose lifecycle had ended. Likewise it once wrote batches for
// a thread out of range or outside an epoch.
func TestSinkMisuseOrdering(t *testing.T) {
	cases := []struct {
		name string
		run  func(s *segment.Writer)
		// closed rows must report ErrClosed specifically; the rest any
		// sticky usage error.
		wantClosed bool
	}{
		{"commit before manifest", func(s *segment.Writer) { s.WriteCommit(sinkCommit(0)) }, false},
		{"chunk batch before manifest", func(s *segment.Writer) {
			s.WriteChunkBatch(0, []chunk.Entry{{Size: 1, TS: 1}})
		}, false},
		{"input batch before manifest", func(s *segment.Writer) {
			s.WriteInputBatch([]capo.Record{{Kind: capo.KindSyscall, Thread: 0, TS: 1}})
		}, false},
		{"checkpoint before manifest", func(s *segment.Writer) { s.WriteCheckpoint(sinkCheckpoint()) }, false},
		{"final before manifest", func(s *segment.Writer) { s.WriteFinal(sinkFinal()) }, false},
		{"duplicate manifest", func(s *segment.Writer) {
			s.WriteManifest(sinkManifest())
			s.WriteManifest(sinkManifest())
		}, false},
		{"checkpoint arity mismatch", func(s *segment.Writer) {
			s.WriteManifest(sinkManifest())
			cp := sinkCheckpoint()
			cp.ChunkPos = []int{1}
			s.WriteCheckpoint(cp)
		}, false},
		{"chunk batch for thread out of range", func(s *segment.Writer) {
			s.WriteManifest(sinkManifest())
			s.WriteCommit(sinkCommit(0))
			s.WriteChunkBatch(2, []chunk.Entry{{Size: 1, TS: 1}})
		}, false},
		{"chunk batch before any commit", func(s *segment.Writer) {
			s.WriteManifest(sinkManifest())
			s.WriteChunkBatch(0, []chunk.Entry{{Size: 1, TS: 1}})
		}, false},
		{"input batch after checkpoint", func(s *segment.Writer) {
			s.WriteManifest(sinkManifest())
			s.WriteCommit(sinkCommit(0))
			s.WriteChunkBatch(0, []chunk.Entry{{Size: 3, TS: 5}})
			s.WriteCheckpoint(sinkCheckpoint())
			s.WriteInputBatch([]capo.Record{{Kind: capo.KindSyscall, Thread: 0, TS: 6}})
		}, false},
		{"manifest after close", func(s *segment.Writer) {
			writeValidStream(s)
			s.Close()
			s.WriteManifest(sinkManifest())
		}, true},
		{"commit after close", func(s *segment.Writer) {
			writeValidStream(s)
			s.Close()
			s.WriteCommit(sinkCommit(1))
		}, true},
		{"chunk batch after close", func(s *segment.Writer) {
			writeValidStream(s)
			s.Close()
			s.WriteChunkBatch(0, []chunk.Entry{{Size: 1, TS: 20}})
		}, true},
		{"input batch after close", func(s *segment.Writer) {
			writeValidStream(s)
			s.Close()
			s.WriteInputBatch([]capo.Record{{Kind: capo.KindSyscall, Thread: 0, TS: 21}})
		}, true},
		{"checkpoint after close", func(s *segment.Writer) {
			writeValidStream(s)
			s.Close()
			s.WriteCheckpoint(sinkCheckpoint())
		}, true},
		{"final after close", func(s *segment.Writer) {
			writeValidStream(s)
			s.Close()
			s.WriteFinal(sinkFinal())
		}, true},
	}
	for _, tc := range cases {
		t.Run("Writer/"+tc.name, func(t *testing.T) {
			s := segment.NewWriter(io.Discard)
			tc.run(s)
			err := s.Err()
			if err == nil {
				t.Fatalf("%s accepted silently", tc.name)
			}
			if tc.wantClosed && !errors.Is(err, segment.ErrClosed) {
				t.Fatalf("error %v, want ErrClosed", err)
			}
			// The violation must be sticky: a later, otherwise-legal
			// write keeps reporting the first error.
			before := err.Error()
			s.WriteCommit(sinkCommit(9))
			if got := s.Err(); got == nil || got.Error() != before {
				t.Fatalf("usage error not sticky: had %q, then %v", before, got)
			}
		})
	}
}

// TestWriterWriteAfterCloseEmitsNothing pins the byte-level consequence
// of the closed guard: segments written after Close never reach the
// underlying stream.
func TestWriterWriteAfterCloseEmitsNothing(t *testing.T) {
	var buf bytes.Buffer
	w := segment.NewWriter(&buf)
	writeValidStream(w)
	if err := w.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	mark := buf.Len()
	segs := w.Segments()
	w.WriteCommit(sinkCommit(1))
	w.WriteChunkBatch(0, []chunk.Entry{{Size: 1, TS: 30}})
	if buf.Len() != mark {
		t.Fatalf("closed writer appended %d bytes to the stream", buf.Len()-mark)
	}
	if w.Segments() != segs {
		t.Fatalf("closed writer advanced segment count %d -> %d", segs, w.Segments())
	}
	if !errors.Is(w.Err(), segment.ErrClosed) {
		t.Fatalf("error %v, want ErrClosed", w.Err())
	}
	if !strings.Contains(w.Err().Error(), "Close") {
		t.Fatalf("error %q does not mention Close", w.Err())
	}
}

// TestWindowWriterCloseIdempotent pins that Close writes nothing, the
// second time included: every segment reached the stream as it was
// written, and a second Close reports the first one's state.
func TestWindowWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := segment.NewWriter(&buf)
	writeValidStream(w)
	n := buf.Len()
	if err := w.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if buf.Len() != n {
		t.Fatalf("close wrote %d bytes after the stream's last segment", buf.Len()-n)
	}
}
