package core

import (
	"bytes"
	"encoding/binary"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/wire"
)

// Wire format v2. Layout:
//
//	"QRBN" | version=3 | flags u32 LE | block(body)
//
// where block is the wire layer's framed body (raw or LZ, see
// wire.AppendBlock) and flags carries the v1 feature bits plus
// bflagCompressed, which must agree with the block's method byte.
// Unknown flag bits are rejected — that word is the format's forward
// negotiation surface.
//
// The body differs from v1 in two structure-aware ways that exist to
// make the block compressor's job easy and the mmap decode path cheap:
//
//   - The input log is columnar (capo.AppendColumnar): per-field
//     columns collapse under LZ, and all syscall payloads form one
//     contiguous arena that decode can alias zero-copy.
//   - The output blob is not stored verbatim. Recorded programs echo
//     input data to output constantly (the read-then-write server
//     pattern), so the output section is a sequence of ops: literal
//     runs interleaved with references to input-log records whose Data
//     equals the next output bytes. On IO-heavy recordings this elides
//     the second copy of every syscall payload — the difference
//     between ~1.97x and >2x whole-bundle compression, since the
//     payloads themselves are incompressible.
//
// Section order groups the LZ-friendly bytes (columns, chunk logs)
// ahead of the incompressible arena, then the ops tail.

// output op tags.
const (
	outOpLiteral = 0 // len uvarint | bytes
	outOpRef     = 1 // input-log record index uvarint
)

// outRefMinLen is the smallest record payload worth referencing; below
// this the literal bytes are as cheap as the op.
const outRefMinLen = 32

func (b *Bundle) marshalV2(method byte, auto bool) []byte {
	// The body gets its own buffer, sized by appendBodyV2: a pooled one
	// would be regrown past the pool's cap and dropped, and the pool
	// keeps serving the block's token scratch instead.
	var body wire.Appender
	b.appendBodyV2(&body)
	// The block grows the header's buffer once, to the framed size; an
	// LZ body is a fraction of the raw one.
	a := wire.AppenderOf(make([]byte, 0, 9))
	a.Raw(bundleMagic[:])
	a.Byte(bundleVersionV2)
	flagsPos := a.Len()
	a.U32(0) // patched below once the block method is known
	used := method
	if auto {
		used = wire.AppendBlock(&a, body.Buf)
	} else {
		wire.AppendBlockMethod(&a, body.Buf, method)
	}
	flags := b.flagBits()
	if used == wire.BlockLZ {
		flags |= bflagCompressed
	}
	binary.LittleEndian.PutUint32(a.Buf[flagsPos:], flags)
	return a.Buf
}

// appendBodyV2 serializes the pre-block body.
func (b *Bundle) appendBodyV2(a *wire.Appender) {
	a.Grow(b.sizeHint())
	a.String(b.ProgramName)
	a.Int(b.Threads)
	a.Uvarint(b.StackWordsPerThread)
	a.Uvarint(b.MemChecksum)
	b.appendFinalState(a)
	scratch := wire.GetAppender()
	for _, l := range b.ChunkLogs {
		scratch.Reset()
		l.AppendMarshal(scratch, chunk.Delta{})
		a.Blob(scratch.Buf)
	}
	wire.PutAppender(scratch)
	capo.AppendColumnar(a, b.InputLog.Records)
	b.appendSigLogs(a)
	b.appendCheckpoints(a)
	appendOutputOps(a, b.Output, b.InputLog.Records)
}

// appendOutputOps encodes out as literal runs plus references into the
// input-log payloads. The matcher is greedy left-to-right with
// first-record-wins candidate order, so the op sequence is a pure
// function of (out, recs) — decode followed by re-encode reproduces
// the source bytes.
func appendOutputOps(a *wire.Appender, out []byte, recs []capo.Record) {
	a.Int(len(out))
	var index map[uint64][]int32
	for i := range recs {
		if len(recs[i].Data) >= outRefMinLen {
			if index == nil {
				index = make(map[uint64][]int32)
			}
			k := binary.LittleEndian.Uint64(recs[i].Data)
			index[k] = append(index[k], int32(i))
		}
	}
	lit, p := 0, 0
	emitLit := func(end int) {
		if lit < end {
			a.Byte(outOpLiteral)
			a.Int(end - lit)
			a.Raw(out[lit:end])
		}
	}
	for index != nil && p+8 <= len(out) {
		matched := false
		for _, ci := range index[binary.LittleEndian.Uint64(out[p:])] {
			d := recs[ci].Data
			if len(d) <= len(out)-p && bytes.Equal(out[p:p+len(d)], d) {
				emitLit(p)
				a.Byte(outOpRef)
				a.Int(int(ci))
				p += len(d)
				lit = p
				matched = true
				break
			}
		}
		if !matched {
			p++
		}
	}
	emitLit(len(out))
}

// decodeOutputOps rebuilds the output blob into dst's capacity.
func decodeOutputOps(c *wire.Cursor, recs []capo.Record, dst []byte) ([]byte, error) {
	outLen, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if outLen > 1<<32 {
		return nil, c.Corruptf("implausible output length %d", outLen)
	}
	out := dst[:0]
	for uint64(len(out)) < outLen {
		tag, err := c.Byte()
		if err != nil {
			return nil, err
		}
		switch tag {
		case outOpLiteral:
			n, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			if n == 0 || n > outLen-uint64(len(out)) {
				return nil, c.Corruptf("literal run %d outside remaining output %d", n, outLen-uint64(len(out)))
			}
			raw, err := c.Raw(int(n))
			if err != nil {
				return nil, err
			}
			out = append(out, raw...)
		case outOpRef:
			idx, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			if idx >= uint64(len(recs)) {
				return nil, c.Corruptf("output ref to record %d of %d", idx, len(recs))
			}
			d := recs[idx].Data
			if len(d) == 0 || uint64(len(d)) > outLen-uint64(len(out)) {
				return nil, c.Corruptf("output ref to %d-byte payload with %d output bytes left", len(d), outLen-uint64(len(out)))
			}
			out = append(out, d...)
		default:
			return nil, c.Corruptf("unknown output op %d", tag)
		}
	}
	return out, nil
}
