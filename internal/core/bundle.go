package core

import (
	"errors"
	"fmt"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/wire"
)

// ErrCorruptBundle reports a malformed serialized bundle.
var ErrCorruptBundle = errors.New("core: corrupt bundle")

// Decode failures carry both the bundle identity and the shared wire
// sentinel, so bundle faults triage like every other log fault.
var (
	errBundleTruncated = fmt.Errorf("%w: %w", ErrCorruptBundle, wire.ErrTruncated)
	errBundleCorrupt   = fmt.Errorf("%w: %w", ErrCorruptBundle, wire.ErrCorrupt)
)

// ErrUnknownBundleVersion reports a bundle whose header names a version
// this decoder does not speak. It wraps ErrCorruptBundle and the shared
// wire.ErrCorrupt sentinel, so version skew triages as corruption
// rather than crashing a reader.
var ErrUnknownBundleVersion = fmt.Errorf("%w: unknown bundle version", errBundleCorrupt)

var bundleMagic = [4]byte{'Q', 'R', 'B', 'N'}

// Header version bytes. The original format predates explicit format
// negotiation and stamped 2 in its version slot, so "wire format v1"
// is header byte 2 and "wire format v2" is header byte 3.
const (
	bundleVersionV1 = 2
	bundleVersionV2 = 3
)

// Feature-flag bits. V1 carries bits 0–3 in a single header byte; v2
// widens the field to a little-endian u32 word and adds bit 4. Unknown
// bits are rejected, which is what makes the word a negotiation
// surface: a future writer that sets a new bit is refused loudly by
// old readers instead of being misparsed.
const (
	bflagCountReps  = 1 << 0
	bflagPartial    = 1 << 1
	bflagSigs       = 1 << 2
	bflagIntervals  = 1 << 3
	bflagCompressed = 1 << 4 // v2 only: body block is LZ-compressed
	bflagKnownV1    = bflagCountReps | bflagPartial | bflagSigs | bflagIntervals
	bflagKnownV2    = bflagKnownV1 | bflagCompressed
)

// Format selects the byte format Marshal emits. The zero value lets
// the encoder choose (currently: v2, compressed when that is smaller);
// decoding stamps the source's exact format on the bundle, so decode →
// Marshal reproduces the input bytes for every format — the
// re-encode-is-identity property the conformance harness checks.
type Format uint8

const (
	// FormatAuto is the encoder's choice: v2, LZ body iff smaller.
	FormatAuto Format = iota
	// FormatV1 is the legacy byte format (header version 2), kept
	// decodable and re-encodable forever for stored recordings.
	FormatV1
	// FormatV2Raw is v2 framing with an uncompressed body block.
	FormatV2Raw
	// FormatV2LZ is v2 framing with an LZ-compressed body block.
	FormatV2LZ
)

func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatV1:
		return "v1"
	case FormatV2Raw:
		return "v2-raw"
	case FormatV2LZ:
		return "v2-lz"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// flagBits returns the content-derived feature bits (everything except
// the compression bit, which depends on the chosen block method).
func (b *Bundle) flagBits() uint32 {
	var flags uint32
	if b.CountRepIterations {
		flags |= bflagCountReps
	}
	if b.Partial {
		flags |= bflagPartial
	}
	if b.SigLogs != nil {
		flags |= bflagSigs
	}
	if len(b.IntervalCheckpoints) > 0 {
		flags |= bflagIntervals
	}
	return flags
}

// sizeHint estimates the marshalled size so the output buffer is
// allocated once instead of doubling through the nested logs.
func (b *Bundle) sizeHint() int {
	n := 256 + len(b.Output)
	for _, l := range b.ChunkLogs {
		n += 32 + l.Len()*8
	}
	if b.InputLog != nil {
		n += 64 + b.InputLog.SizeHint()
	}
	for _, pairs := range b.SigLogs {
		for _, p := range pairs {
			n += 8 + len(p.Read) + len(p.Write)
		}
	}
	if b.Checkpoint != nil {
		n += snapshotSizeHint(b.Checkpoint)
	}
	for _, ck := range b.IntervalCheckpoints {
		n += 32 + snapshotSizeHint(&ck.Snapshot)
	}
	return n
}

func snapshotSizeHint(s *capo.Snapshot) int {
	return 64 + int(s.Mem.Size()) + len(s.Output) +
		len(s.Contexts)*(isa.NumRegs+4)*9
}

// Marshal serializes the bundle (logs, metadata and reference state;
// RecordStats is runtime-only and not serialized) in the format named
// by b.Format: the legacy v1 layout, or the versioned v2 layout with
// its columnar input log and optionally block-compressed body. The
// zero Format lets the encoder choose (v2, compressed when smaller).
func (b *Bundle) Marshal() []byte {
	switch b.Format {
	case FormatV1:
		return b.marshalV1()
	case FormatV2Raw:
		return b.marshalV2(wire.BlockRaw, false)
	case FormatV2LZ:
		return b.marshalV2(wire.BlockLZ, false)
	default:
		return b.marshalV2(0, true)
	}
}

// marshalV1 emits the legacy byte format. Its output is pinned by the
// golden fixtures and must never change. Chunk logs are stored in the
// paper-style timestamp-delta encoding.
func (b *Bundle) marshalV1() []byte {
	a := wire.AppenderOf(make([]byte, 0, b.sizeHint()))
	a.Raw(bundleMagic[:])
	a.Byte(bundleVersionV1)
	a.Byte(byte(b.flagBits()))
	a.String(b.ProgramName)
	a.Int(b.Threads)
	a.Uvarint(b.StackWordsPerThread)
	a.Uvarint(b.MemChecksum)
	a.Blob(b.Output)
	b.appendFinalState(&a)
	// Nested logs are built in one pooled scratch buffer, then blobbed
	// into the output with their length prefix.
	scratch := wire.GetAppender()
	for _, l := range b.ChunkLogs {
		scratch.Reset()
		l.AppendMarshal(scratch, chunk.Delta{})
		a.Blob(scratch.Buf)
	}
	scratch.Reset()
	b.InputLog.AppendMarshal(scratch)
	a.Blob(scratch.Buf)
	wire.PutAppender(scratch)
	b.appendSigLogs(&a)
	b.appendCheckpoints(&a)
	return a.Buf
}

// appendFinalState emits the retired counts and final contexts shared
// by both layouts. It always emits Threads entries: a Partial bundle has
// no reference final state, so it pads with zero values the reader can
// skip past.
func (b *Bundle) appendFinalState(a *wire.Appender) {
	for t := 0; t < b.Threads; t++ {
		var r uint64
		if t < len(b.RetiredPerThread) {
			r = b.RetiredPerThread[t]
		}
		a.Uvarint(r)
	}
	for t := 0; t < b.Threads; t++ {
		var ctx isa.Context
		if t < len(b.FinalContexts) {
			ctx = b.FinalContexts[t]
		}
		capo.AppendContext(a, ctx)
	}
}

// appendSigLogs emits the optional signature section shared by both
// layouts: one signature log per thread, parallel to the chunk logs;
// each pair is the chunk's serialized read then write filter.
func (b *Bundle) appendSigLogs(a *wire.Appender) {
	if b.SigLogs == nil {
		return
	}
	for t := 0; t < b.Threads; t++ {
		var pairs []capo.SigPair
		if t < len(b.SigLogs) {
			pairs = b.SigLogs[t]
		}
		a.Int(len(pairs))
		for _, p := range pairs {
			a.Blob(p.Read)
			a.Blob(p.Write)
		}
	}
}

// appendCheckpoints emits the checkpoint and interval-checkpoint
// sections shared by both layouts.
func (b *Bundle) appendCheckpoints(a *wire.Appender) {
	if b.Checkpoint == nil {
		a.Byte(0)
	} else {
		a.Byte(1)
		appendSnapshot(a, b.Checkpoint)
	}
	if len(b.IntervalCheckpoints) == 0 {
		return
	}
	a.Int(len(b.IntervalCheckpoints))
	for _, ck := range b.IntervalCheckpoints {
		appendSnapshot(a, &ck.Snapshot)
		for t := 0; t < b.Threads; t++ {
			var p int
			if t < len(ck.ChunkPos) {
				p = ck.ChunkPos[t]
			}
			a.Int(p)
		}
		a.Int(ck.InputPos)
		a.Uvarint(ck.RetiredAt)
	}
}

// appendSnapshot emits a checkpoint's snapshot in the bundle layout;
// the stream carries the same checkpoint in a layout of its own.
func appendSnapshot(a *wire.Appender, s *capo.Snapshot) {
	capo.AppendImage(a, s.Mem)
	for t := range s.Contexts {
		capo.AppendContext(a, s.Contexts[t])
		a.Bool(s.Exited[t])
		for _, r := range s.SigRegs[t] {
			a.Uvarint(r)
		}
		a.Int(s.SigPC[t])
	}
	a.Int(s.HandlerPC)
	a.Bool(s.HandlerOK)
	a.Blob(s.Output)
}

// readSnapshot decodes what appendSnapshot wrote into s, reusing the
// memory image and per-thread slices s already holds.
func (d *BundleDecoder) readSnapshot(c *wire.Cursor, threads int, s *capo.Snapshot) error {
	var err error
	if s.Mem, err = capo.ReadImage(c, s.Mem); err != nil {
		return err
	}
	s.Contexts = resize(s.Contexts, threads)
	s.Exited = resize(s.Exited, threads)
	s.SigRegs = resize(s.SigRegs, threads)
	s.SigPC = resize(s.SigPC, threads)
	for t := 0; t < threads; t++ {
		if s.Contexts[t], err = capo.ReadContext(c); err != nil {
			return err
		}
		if s.Exited[t], err = c.Bool(); err != nil {
			return err
		}
		for i := range s.SigRegs[t] {
			if s.SigRegs[t][i], err = c.Uvarint(); err != nil {
				return err
			}
		}
		if s.SigPC[t], err = capo.ReadPC(c); err != nil {
			return err
		}
	}
	if s.HandlerPC, err = capo.ReadPC(c); err != nil {
		return err
	}
	if s.HandlerOK, err = c.Bool(); err != nil {
		return err
	}
	s.Output, err = d.blob(c)
	return err
}
