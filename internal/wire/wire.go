// Package wire is the shared serialization layer every QuickRec log
// codec is built on: chunk logs, Capo input logs, Bloom signatures,
// segment framing and the bundle container all encode through the same
// append-style primitives and decode through the same bounds-checked
// cursor.
//
// The layer exists for three reasons. First, byte-format stability: the
// primitives (unsigned LEB128 varints via encoding/binary, little-endian
// fixed words, uvarint-length-prefixed blobs) are the single definition
// of how bytes hit the log, so "encoding is byte-identical across
// refactors" is a property of one package instead of five. Second,
// uniform corruption triage: every decode failure wraps exactly one of
// the two shared sentinels — ErrTruncated (input ends mid-field) or
// ErrCorrupt (structural violation) — with the byte offset it happened
// at, so the conformance harness classifies faults with errors.Is and
// never by string. Third, the hot path: the Appender writes into a
// caller-supplied (or pooled, see GetAppender) buffer and the Cursor's
// View/Rest primitives are zero-copy subslices, which is what keeps the
// record-stream flush and replay decode paths from allocating per item.
//
// Decoders that retain a field beyond the decode call must use Blob
// (copying); View is for transient parsing only, unless the decoder
// documents that its result aliases the input, and caps what it keeps.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports input that ends in the middle of a field or
// entry. It is the shared truncation sentinel for every log decoder in
// the system (chunk logs, input logs, signatures, segment streams,
// bundles); triage tooling classifies truncation faults uniformly with
// errors.Is. internal/chunk re-exports it as chunk.ErrTruncated.
var ErrTruncated = errors.New("truncated log")

// ErrCorrupt reports input that fails structural validation. Like
// ErrTruncated it is shared across all log decoders and re-exported as
// chunk.ErrCorrupt.
var ErrCorrupt = errors.New("corrupt log")

// Appender builds a serialized log by appending primitives onto Buf.
// The zero value is ready to use (appends allocate as needed); wrap an
// existing slice to reuse its capacity, or obtain a pooled one with
// GetAppender. Buf is exported so finished bytes can be taken without a
// copy — an Appender is a build site, not an abstraction boundary.
type Appender struct {
	Buf []byte
}

// AppenderOf wraps dst for appending; encoded bytes extend dst.
func AppenderOf(dst []byte) Appender { return Appender{Buf: dst} }

// Uvarint appends v as an unsigned LEB128 varint.
func (a *Appender) Uvarint(v uint64) { a.Buf = binary.AppendUvarint(a.Buf, v) }

// Int appends a non-negative int as a uvarint. Every count and position
// field in the formats is logically non-negative; encoding them through
// one choke point keeps the sign convention uniform. A negative value is
// a bug in the caller — it would sign-extend into a ~10-byte uvarint
// that decodes as an enormous count — so it panics rather than writing
// corruption into a log.
func (a *Appender) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("wire: Int(%d): negative value in a non-negative field", v))
	}
	a.Buf = binary.AppendUvarint(a.Buf, uint64(v))
}

// Varint appends v as a zigzag-encoded signed LEB128 varint — the
// encoding for delta columns whose steps can go either direction
// (Lamport-timestamp deltas across threads).
func (a *Appender) Varint(v int64) { a.Buf = binary.AppendVarint(a.Buf, v) }

// Byte appends one raw byte (kind tags, flag bytes, version bytes).
func (a *Appender) Byte(b byte) { a.Buf = append(a.Buf, b) }

// Bool appends one byte: 1 for true, 0 for false.
func (a *Appender) Bool(b bool) {
	if b {
		a.Buf = append(a.Buf, 1)
	} else {
		a.Buf = append(a.Buf, 0)
	}
}

// Raw appends p verbatim, no length prefix.
func (a *Appender) Raw(p []byte) { a.Buf = append(a.Buf, p...) }

// Blob appends p with a uvarint length prefix.
func (a *Appender) Blob(p []byte) {
	a.Buf = binary.AppendUvarint(a.Buf, uint64(len(p)))
	a.Buf = append(a.Buf, p...)
}

// String appends s with a uvarint length prefix.
func (a *Appender) String(s string) {
	a.Buf = binary.AppendUvarint(a.Buf, uint64(len(s)))
	a.Buf = append(a.Buf, s...)
}

// U32 appends v as a little-endian 32-bit word.
func (a *Appender) U32(v uint32) { a.Buf = binary.LittleEndian.AppendUint32(a.Buf, v) }

// U64 appends v as a little-endian 64-bit word.
func (a *Appender) U64(v uint64) { a.Buf = binary.LittleEndian.AppendUint64(a.Buf, v) }

// Len returns the bytes built so far.
func (a *Appender) Len() int { return len(a.Buf) }

// Reset empties the appender, keeping the buffer's capacity.
func (a *Appender) Reset() { a.Buf = a.Buf[:0] }

// Grow ensures capacity for at least n more bytes, so a caller that
// knows a payload's rough size pays one allocation instead of a
// doubling cascade.
func (a *Appender) Grow(n int) {
	if need := len(a.Buf) + n; need > cap(a.Buf) {
		buf := make([]byte, len(a.Buf), need)
		copy(buf, a.Buf)
		a.Buf = buf
	}
}
