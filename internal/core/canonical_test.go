package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/segment"
	"repro/internal/wire"
)

// imageMark fills the 16-byte checkpoint images of the synthetic
// recordings below, so a case can find an image and rewrite it.
var imageMark = bytes.Repeat([]byte{0xA5}, 16)

// markedSnapshot is an all-zero snapshot of threads threads whose memory
// image is imageMark.
func markedSnapshot(threads int) capo.Snapshot {
	img := mem.New(uint64(len(imageMark)))
	img.StoreBytes(0, imageMark)
	return capo.Snapshot{
		Mem:      img,
		Contexts: make([]isa.Context, threads),
		Exited:   make([]bool, threads),
		SigRegs:  make([][isa.NumRegs]uint64, threads),
		SigPC:    make([]int, threads),
	}
}

// counterV1 decodes the counter-4t2c fixture, a v1 bundle.
func counterV1(t *testing.T) *Bundle {
	t.Helper()
	b, err := UnmarshalBundle(loadGolden(t, "counter-4t2c.bundle"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// markedTail is counter-4t2c as a v1 tail bundle whose checkpoint
// carries markedSnapshot, marshalled, with the offset just past the
// checkpoint image.
func markedTail(t *testing.T, edit func(*capo.Snapshot)) ([]byte, int) {
	t.Helper()
	b := counterV1(t)
	s := markedSnapshot(b.Threads)
	if edit != nil {
		edit(&s)
	}
	b.Checkpoint = &s
	data := b.Marshal()
	at := bytes.Index(data, append([]byte{byte(len(imageMark))}, imageMark...))
	if at < 0 {
		t.Fatal("checkpoint image not found in the marshalled bundle")
	}
	return data, at + 1 + len(imageMark)
}

// shrinkImage rewrites the 16-byte imageMark image in data to 13 bytes.
func shrinkImage(t *testing.T, data []byte) []byte {
	t.Helper()
	old := append([]byte{byte(len(imageMark))}, imageMark...)
	if !bytes.Contains(data, old) {
		t.Fatal("checkpoint image not found")
	}
	return bytes.Replace(data, old, append([]byte{13}, imageMark[:13]...), 1)
}

// finalFlagOffset walks a v1 bundle to thread 0's final-context flag
// byte.
func finalFlagOffset(t *testing.T, data []byte) int {
	t.Helper()
	c := wire.CursorOf(data)
	c.Skip(6)
	c.View() // program name
	threads, _ := c.Uvarint()
	c.Uvarint() // stack words
	c.Uvarint() // memory checksum
	c.View()    // output
	for i := uint64(0); i < threads+isa.NumRegs+2; i++ {
		c.Uvarint() // retired counts, then thread 0's registers, PC and retired count
	}
	if _, err := c.Byte(); err != nil {
		t.Fatal(err)
	}
	return c.Pos() - 1
}

// markedStream is a one-thread segmented stream with one checkpoint
// whose snapshot is markedSnapshot, with that checkpoint's image
// shrunk to 13 bytes and its segment re-framed under a valid checksum.
func markedStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := segment.NewWriter(&buf)
	w.WriteManifest(segment.Manifest{ProgramName: "canonical", Threads: 1, EncodingID: chunk.DeltaID})
	w.WriteCheckpoint(&capo.Checkpoint{Snapshot: markedSnapshot(1), ChunkPos: []int{0}})
	w.WriteFinal(&segment.FinalPayload{FinalContexts: make([]isa.Context, 1), RetiredPerThread: []uint64{0}})
	data := buf.Bytes()
	if _, err := segment.Decode(data); err != nil {
		t.Fatalf("unmodified stream: %v", err)
	}
	ends := segment.Offsets(data)
	start, end := ends[0], ends[1] // the checkpoint segment
	const header, trailer = 13, 4
	payload := shrinkImage(t, data[start+header:end-trailer])
	seg := append([]byte(nil), data[start:start+9]...) // magic, seq, kind
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
	seg = append(seg, payload...)
	seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(seg[4:], crc32.MakeTable(crc32.Castagnoli)))
	return append(append(append([]byte(nil), data[:start]...), seg...), data[end:]...)
}

// TestCanonicalDecode pins decode → Marshal identity from the reject
// side: a bundle or stream that would decode to a value marshalling to
// other bytes is corruption, typed as ErrCorruptBundle or
// segment.ErrCorrupt.
func TestCanonicalDecode(t *testing.T) {
	decodeBundle := func(data []byte) error { _, err := UnmarshalBundle(data); return err }
	decodeStream := func(data []byte) error { _, err := segment.Decode(data); return err }
	cases := []struct {
		name   string
		data   func(t *testing.T) []byte
		decode func([]byte) error
		want   error
	}{
		{"context flags above 3", func(t *testing.T) []byte {
			data := loadGolden(t, "counter-4t2c.bundle")
			bad := append([]byte(nil), data...)
			bad[finalFlagOffset(t, bad)] |= 4
			return bad
		}, decodeBundle, ErrCorruptBundle},
		{"context PC 2^31", func(t *testing.T) []byte {
			b := counterV1(t)
			b.FinalContexts[0].PC = 1 << 31
			return b.Marshal()
		}, decodeBundle, ErrCorruptBundle},
		{"signal frame PC 2^31", func(t *testing.T) []byte {
			data, _ := markedTail(t, func(s *capo.Snapshot) { s.SigPC[1] = 1 << 31 })
			return data
		}, decodeBundle, ErrCorruptBundle},
		{"13-byte checkpoint image", func(t *testing.T) []byte {
			data, _ := markedTail(t, nil)
			return shrinkImage(t, data)
		}, decodeBundle, ErrCorruptBundle},
		{"checkpoint exit flag 2", func(t *testing.T) []byte {
			data, end := markedTail(t, nil)
			data[end+isa.NumRegs+4] = 2 // after thread 0's all-zero context
			return data
		}, decodeBundle, ErrCorruptBundle},
		{"checkpoint handler flag 2", func(t *testing.T) []byte {
			data, _ := markedTail(t, func(s *capo.Snapshot) {
				s.HandlerPC, s.HandlerOK, s.Output = 77, true, []byte("handler")
			})
			i := bytes.Index(data, []byte("\x4d\x01\x07handler"))
			if i < 0 {
				t.Fatal("handler registration not found")
			}
			data[i+1] = 2
			return data
		}, decodeBundle, ErrCorruptBundle},
		{"13-byte stream checkpoint image", markedStream, decodeStream, segment.ErrCorrupt},
		{"padded varint", func(t *testing.T) []byte {
			data := loadGolden(t, "counter-4t2c.bundle")
			c := wire.CursorOf(data)
			c.Skip(6)
			c.View()    // program name
			c.Uvarint() // threads
			at := c.Pos()
			if words, err := c.Uvarint(); err != nil || words != 1024 || c.Pos() != at+2 {
				t.Fatalf("stack words %d in %d bytes, %v; want 1024 in 2", words, c.Pos()-at, err)
			}
			// 1024 is 0x80 0x08; padded to three bytes it is 0x80 0x88 0x00.
			return append(append(append([]byte(nil), data[:at]...), 0x80, 0x88, 0x00), data[at+2:]...)
		}, decodeBundle, ErrCorruptBundle},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.decode(c.data(t))
			if !errors.Is(err, c.want) {
				t.Fatalf("decode error %v, want %v", err, c.want)
			}
		})
	}
}
