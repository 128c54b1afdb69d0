package segment_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/segment"
)

// corpusStream is a small valid stream seeding the fuzzer: manifest, one
// epoch with a chunk and input batch, and a final segment.
func corpusStream() []byte {
	var buf bytes.Buffer
	w := segment.NewWriter(&buf)
	w.WriteManifest(segment.Manifest{
		ProgramName: "fuzz", Threads: 1, StackWordsPerThread: 16,
		EncodingID: chunk.DeltaID, FlushEveryChunks: 2,
	})
	w.WriteCommit(segment.Commit{
		Epoch: 0, Watermark: []uint64{9}, Exited: []bool{true},
		ChunkCount: []int{2}, InputCount: []int{1},
	})
	w.WriteChunkBatch(0, []chunk.Entry{
		{Size: 3, TS: 1, Reason: chunk.ReasonSyscall},
		{Size: 4, TS: 6, Reason: chunk.ReasonFlush},
	})
	w.WriteInputBatch([]capo.Record{
		{Kind: capo.KindSyscall, Thread: 0, Seq: 0, TS: 4, Sysno: 2, Ret: 7, Data: []byte{0xaa}},
	})
	w.WriteFinal(&segment.FinalPayload{
		MemChecksum: 1, Output: []byte("ok"),
		FinalContexts:    []isa.Context{{PC: 2, Retired: 7, Halted: true}},
		RetiredPerThread: []uint64{7},
	})
	return buf.Bytes()
}

// compressedKindStream returns corpusStream with its chunk segment
// re-tagged KindChunk|0x80, the retired compressed-segment marker, and
// its CRC recomputed so only the kind is wrong. It also returns the end
// offset of the last segment before it.
func compressedKindStream() (data []byte, prefix int) {
	data = corpusStream()
	offs := segment.Offsets(data)
	start, end := offs[1], offs[2] // manifest, commit, then the chunk batch
	data[start+8] |= 0x80          // magic u32 | seq u32 | kind u8
	binary.LittleEndian.PutUint32(data[end-4:],
		crc32.Checksum(data[start+4:end-4], crc32.MakeTable(crc32.Castagnoli)))
	return data, start
}

// windowManifestStream returns corpusStream with its manifest in the
// retired flight-recorder window form: flags (0x02, or 0x06 for a
// window with a base checkpoint) and a trailing retention window of 2
// intervals, framed with a valid CRC.
func windowManifestStream(flags byte) []byte {
	valid := corpusStream()
	end := segment.Offsets(valid)[0]
	payload := append([]byte(nil), valid[13:end-4]...) // magic, seq, kind, plen | payload | crc
	payload[1] = flags
	payload = append(payload, 2)
	seg := binary.LittleEndian.AppendUint32([]byte("QRSG"), 0)
	seg = append(seg, byte(segment.KindManifest))
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
	seg = append(seg, payload...)
	seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(seg[4:], crc32.MakeTable(crc32.Castagnoli)))
	return append(seg, valid[end:]...)
}

// FuzzSegmentStream feeds arbitrary bytes to the salvage scanner. The
// scanner must never panic, never keep bytes past the input, and every
// stream it reports as cleanly complete must also satisfy the strict
// decoder. A salvaged prefix must itself salvage to the same content
// (salvage is idempotent) — otherwise a second recovery pass could
// silently change the replayed execution.
func FuzzSegmentStream(f *testing.F) {
	valid := corpusStream()
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x40 // corrupt final segment's checksum
	f.Add(badCRC)
	offs := segment.Offsets(valid)
	dup := append([]byte(nil), valid[:offs[1]]...) // duplicate commit segment
	dup = append(dup, valid[offs[0]:offs[1]]...)
	dup = append(dup, valid[offs[1]:]...)
	f.Add(dup)
	f.Add([]byte{})
	f.Add([]byte("QRSG"))
	compressed, _ := compressedKindStream()
	f.Add(compressed)
	f.Add(windowManifestStream(0x06))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, rep, err := segment.Salvage(data)
		if err != nil {
			return
		}
		if rep.BytesKept > len(data) {
			t.Fatalf("kept %d bytes of a %d-byte input", rep.BytesKept, len(data))
		}
		if rep.Complete && rep.Reason == "" {
			if _, err := segment.Decode(data[:rep.BytesKept]); err != nil {
				t.Fatalf("complete salvage rejected by strict decode: %v", err)
			}
		}
		again, rep2, err := segment.Salvage(data[:rep.BytesKept])
		if err != nil {
			t.Fatalf("re-salvage of kept prefix failed: %v", err)
		}
		if rep2.BytesKept != rep.BytesKept {
			t.Fatalf("re-salvage kept %d bytes, first pass kept %d", rep2.BytesKept, rep.BytesKept)
		}
		for th := range st.ChunkLogs {
			if again.ChunkLogs[th].Len() != st.ChunkLogs[th].Len() {
				t.Fatalf("re-salvage changed thread %d entry count: %d vs %d",
					th, again.ChunkLogs[th].Len(), st.ChunkLogs[th].Len())
			}
		}
		if again.InputLog.Len() != st.InputLog.Len() {
			t.Fatalf("re-salvage changed input count: %d vs %d", again.InputLog.Len(), st.InputLog.Len())
		}
	})
}
