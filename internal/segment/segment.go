// Package segment implements the crash-consistent streaming form of a
// QuickRec recording: a sequence of self-describing, individually
// checksummed segments that the recorder emits incrementally, so a
// writer that dies mid-run still leaves a salvageable prefix on disk.
//
// Wire format (little-endian):
//
//	segment := magic[4]="QRSG" | seq u32 | kind u8 | plen u32 | payload[plen] | crc u32
//
// crc is CRC-32C (Castagnoli) over seq|kind|plen|payload — everything
// after the magic. CRC-32C detects all single-bit errors and all burst
// errors up to 32 bits, which is what the conformance sweep asserts.
//
// A stream is: one Manifest, then flush epochs (each a Commit followed
// by the chunk/input batches it announces), Checkpoint segments at
// flight-recorder boundaries, and a Final segment carrying the reference
// state. The commit-first discipline is what makes torn-write salvage
// sound: a Commit declares per-thread clock watermarks and expected
// batch counts *before* the data, so a scanner can always tell how much
// of the trailing epoch survived (see Salvage).
//
// Writer writes every stream, each segment as it arrives. A recording's
// last checkpoint intervals come from salvaging the whole stream and
// taking its tail (core.TailAt).
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/wire"
)

// Kind tags a segment's payload type.
type Kind uint8

// Segment kinds.
const (
	// KindManifest opens a stream: program identity, thread count,
	// chunk-log encoding. Always segment 0.
	KindManifest Kind = 1
	// KindCommit opens a flush epoch: per-thread clock watermarks and the
	// batch counts that follow.
	KindCommit Kind = 2
	// KindChunk carries one thread's chunk entries for the current epoch.
	KindChunk Kind = 3
	// KindInput carries the current epoch's input records (all threads).
	KindInput Kind = 4
	// KindCheckpoint carries a flight-recorder snapshot.
	KindCheckpoint Kind = 5
	// KindFinal carries the reference final state; its presence marks the
	// stream complete.
	KindFinal Kind = 6
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindManifest:
		return "manifest"
	case KindCommit:
		return "commit"
	case KindChunk:
		return "chunk"
	case KindInput:
		return "input"
	case KindCheckpoint:
		return "checkpoint"
	case KindFinal:
		return "final"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Errors wrap the shared chunk.ErrTruncated / chunk.ErrCorrupt sentinels
// so stream faults triage exactly like chunk- and input-log faults.
var (
	// ErrTruncated reports a stream that ends mid-segment (a torn write).
	ErrTruncated = fmt.Errorf("segment: torn stream: %w", chunk.ErrTruncated)
	// ErrCorrupt reports a stream that fails structural validation or a
	// checksum.
	ErrCorrupt = fmt.Errorf("segment: corrupt stream: %w", chunk.ErrCorrupt)
	// ErrClosed reports a Write* call on a closed Writer. The violation
	// is sticky: once tripped, the writer's Err reports it forever, so a
	// recorder that keeps flushing into a closed stream cannot silently
	// lose epochs.
	ErrClosed = fmt.Errorf("segment: writer is closed")
)

var streamMagic = [4]byte{'Q', 'R', 'S', 'G'}

const (
	headerSize  = 4 + 4 + 1 + 4 // magic, seq, kind, plen
	trailerSize = 4             // crc32c
	// maxPayload bounds a single segment; plen fields beyond it are
	// treated as corruption rather than allocated.
	maxPayload = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer emits a segmented stream, framing each segment in a pooled
// appender and writing it as it arrives. Errors from the underlying
// io.Writer are sticky: the first failure is retained and every later
// Write* becomes a no-op, so the recorder can run to completion and
// surface the stream error once at the end.
type Writer struct {
	w      io.Writer
	err    error
	seq    uint32
	closed bool

	enc     chunk.Encoding
	threads int
	// inEpoch is set by a commit and cleared by a checkpoint or the
	// final segment: chunk and input batches belong to an open epoch.
	inEpoch bool

	segments   int
	totalBytes uint64
	// framingBytes counts non-log overhead: headers, CRCs, and commit
	// payloads (the bookkeeping that exists only because of streaming).
	framingBytes uint64
}

// NewWriter returns a Writer emitting to w. WriteManifest must be the
// first call; it fixes the thread count and chunk encoding the batch
// helpers use.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Err returns the first underlying write or usage error, if any.
func (w *Writer) Err() error { return w.err }

// Close ends the stream and reports the sticky error state. Every
// segment has been written already, so Close writes nothing. Any Write*
// after Close is a usage error (ErrClosed), and later Close calls
// return the first error.
func (w *Writer) Close() error {
	w.closed = true
	return w.err
}

// usable gates every Write*: false once an error is pending or the
// writer was closed. Writing after Close trips the sticky ErrClosed.
func (w *Writer) usable() bool {
	if w.err != nil {
		return false
	}
	if w.closed {
		w.err = fmt.Errorf("segment: write after Close: %w", ErrClosed)
		return false
	}
	return true
}

// ready gates the Write* calls that follow the manifest; inEpoch adds
// the check that a commit opened the epoch the batch belongs to.
func (w *Writer) ready(what string, inEpoch bool) bool {
	switch {
	case !w.usable():
		return false
	case w.enc == nil:
		w.err = fmt.Errorf("segment: %s before manifest", what)
	case inEpoch && !w.inEpoch:
		w.err = fmt.Errorf("segment: %s outside an epoch", what)
	default:
		return true
	}
	return false
}

// Segments returns the number of segments written so far.
func (w *Writer) Segments() int { return w.segments }

// TotalBytes returns the total stream bytes written so far.
func (w *Writer) TotalBytes() uint64 { return w.totalBytes }

// FramingBytes returns the streaming-only overhead written so far:
// segment headers, checksums, and commit payloads.
func (w *Writer) FramingBytes() uint64 { return w.framingBytes }

// emit frames one segment in a pooled appender — the header, the
// payload encode appends, and the checksum — and writes it. Callers
// have checked that the writer is usable.
func (w *Writer) emit(kind Kind, encode func(*wire.Appender)) {
	a := wire.GetAppender()
	defer wire.PutAppender(a)
	a.Raw(streamMagic[:])
	a.U32(w.seq)
	a.Byte(byte(kind))
	a.U32(0) // plen, set once the payload is in
	encode(a)
	plen := a.Len() - headerSize
	if plen > maxPayload {
		w.err = fmt.Errorf("segment: payload of %d bytes exceeds limit", plen)
		return
	}
	binary.LittleEndian.PutUint32(a.Buf[headerSize-4:], uint32(plen))
	a.U32(crc32.Checksum(a.Buf[4:], castagnoli))
	w.seq++
	w.segments++
	w.totalBytes += uint64(a.Len())
	w.framingBytes += headerSize + trailerSize
	if kind == KindCommit {
		w.framingBytes += uint64(plen)
	}
	if _, err := w.w.Write(a.Buf); err != nil {
		w.err = fmt.Errorf("segment: write: %w", err)
	}
}

// WriteManifest opens the stream. It must be the first call.
func (w *Writer) WriteManifest(m Manifest) {
	if !w.usable() {
		return
	}
	if w.enc != nil {
		w.err = fmt.Errorf("segment: duplicate manifest")
		return
	}
	enc, err := chunk.ByID(m.EncodingID)
	if err != nil {
		w.err = err
		return
	}
	w.enc, w.threads = enc, m.Threads
	w.emit(KindManifest, func(a *wire.Appender) { appendManifest(a, m) })
}

// WriteCommit opens a flush epoch.
func (w *Writer) WriteCommit(c Commit) {
	if !w.ready("commit", false) {
		return
	}
	if len(c.Watermark) != w.threads || len(c.Exited) != w.threads ||
		len(c.ChunkCount) != w.threads || len(c.InputCount) != w.threads {
		w.err = fmt.Errorf("segment: commit arrays do not match %d threads", w.threads)
		return
	}
	w.inEpoch = true
	w.emit(KindCommit, func(a *wire.Appender) { appendCommit(a, c) })
}

// WriteChunkBatch emits thread's pending chunk entries. Delta encoding
// restarts at each batch (the first entry carries an absolute
// timestamp), so every batch decodes independently.
func (w *Writer) WriteChunkBatch(thread int, entries []chunk.Entry) {
	if !w.ready("chunk batch", true) {
		return
	}
	if thread < 0 || thread >= w.threads {
		w.err = fmt.Errorf("segment: chunk batch for thread %d of %d", thread, w.threads)
		return
	}
	w.emit(KindChunk, func(a *wire.Appender) {
		a.Int(thread)
		a.Int(len(entries))
		var prev *chunk.Entry
		for i := range entries {
			a.Buf = w.enc.Append(a.Buf, entries[i], prev)
			prev = &entries[i]
		}
	})
}

// WriteInputBatch emits the epoch's pending input records.
func (w *Writer) WriteInputBatch(recs []capo.Record) {
	if !w.ready("input batch", true) {
		return
	}
	w.emit(KindInput, func(a *wire.Appender) { capo.AppendRecords(a, recs) })
}

// WriteCheckpoint emits a flight-recorder checkpoint. It closes the
// open epoch.
func (w *Writer) WriteCheckpoint(cp *capo.Checkpoint) {
	if !w.ready("checkpoint", false) {
		return
	}
	if len(cp.ChunkPos) != w.threads {
		w.err = fmt.Errorf("segment: checkpoint has %d chunk positions for %d threads",
			len(cp.ChunkPos), w.threads)
		return
	}
	w.inEpoch = false
	w.emit(KindCheckpoint, func(a *wire.Appender) { appendCheckpoint(a, cp) })
}

// WriteFinal closes the stream with the reference final state.
func (w *Writer) WriteFinal(f *FinalPayload) {
	if !w.ready("final", false) {
		return
	}
	w.inEpoch = false
	w.emit(KindFinal, func(a *wire.Appender) { appendFinalPayload(a, f) })
}
