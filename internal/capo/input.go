// Package capo models Capo3, the QuickRec software stack: a kernel-level
// Replay Sphere Manager (RSM) that owns recording sessions, logs all
// input nondeterminism (syscall results, data copied into user memory,
// signal delivery points), and drains per-thread log buffers (CBUFs) to
// a user-space logging daemon. As in rr's syscall buffering, a thread
// logs a syscall whose record holds its whole effect into its own CBUF;
// the machine charges an RSM driver crossing only for a call that
// blocks, exits, yields or changes signal state, and for an input CBUF
// drain.
//
// The kernel itself is simulated (syscall semantics, futexes, scheduling
// hooks live here), but the recording logic is exactly what a real
// driver would run; only the substrate differs.
package capo

import (
	"errors"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/wire"
)

// RecordKind distinguishes input-log record types.
type RecordKind uint8

// Input-log record kinds.
const (
	// KindSyscall records one completed system call.
	KindSyscall RecordKind = 1
	// KindSignal records one asynchronous signal delivery point.
	KindSignal RecordKind = 2
)

// Record is one input-log entry. Syscall records capture the result and
// any data the kernel copied into user memory; signal records capture the
// exact thread-local delivery position (retired instruction count plus
// REP residue) so replay can re-deliver at the same instruction boundary.
type Record struct {
	Kind   RecordKind
	Thread int
	// Seq is the per-thread sequence number (starting at 0).
	Seq int
	// TS is the Lamport timestamp of the kernel's atomic access burst
	// (the copy of results/data), serializing it against user chunks.
	TS uint64

	// Syscall fields.
	Sysno uint64
	Ret   uint64
	Addr  uint64 // user address that received Data (0 if none)
	Data  []byte // bytes copied to user memory

	// Signal fields.
	Signo   uint64
	Retired uint64 // thread's retired-instruction count at delivery
	RepDone uint64 // completed iterations of an in-flight REP at delivery
}

// String renders the record for diagnostics.
func (r Record) String() string {
	switch r.Kind {
	case KindSyscall:
		return fmt.Sprintf("sys{t%d #%d ts=%d no=%d ret=%d data=%dB}",
			r.Thread, r.Seq, r.TS, r.Sysno, r.Ret, len(r.Data))
	case KindSignal:
		return fmt.Sprintf("sig{t%d #%d ts=%d signo=%d at=%d+%d}",
			r.Thread, r.Seq, r.TS, r.Signo, r.Retired, r.RepDone)
	}
	return fmt.Sprintf("record{kind=%d}", r.Kind)
}

// InputLog is a recording session's complete input log. Records appear in
// global append order; the per-thread subsequences are ordered by Seq and
// by TS.
type InputLog struct {
	Records []Record
}

// Append adds a record.
func (l *InputLog) Append(r Record) { l.Records = append(l.Records, r) }

// Slice returns a new log holding the records from position pos on (the
// flight-recorder tail). pos is clamped to the log length.
func (l *InputLog) Slice(pos int) *InputLog {
	if pos < 0 {
		pos = 0
	}
	if pos > len(l.Records) {
		pos = len(l.Records)
	}
	return &InputLog{Records: append([]Record(nil), l.Records[pos:]...)}
}

// Len returns the number of records.
func (l *InputLog) Len() int { return len(l.Records) }

// PerThread returns thread tid's records in order.
func (l *InputLog) PerThread(tid int) []Record {
	var out []Record
	for _, r := range l.Records {
		if r.Thread == tid {
			out = append(out, r)
		}
	}
	return out
}

// DataBytes returns the total payload bytes copied to user memory.
func (l *InputLog) DataBytes() int {
	n := 0
	for _, r := range l.Records {
		n += len(r.Data)
	}
	return n
}

// EncodedSize returns the serialized size of the whole log in bytes.
func (l *InputLog) EncodedSize() int { return len(l.Marshal()) }

var inputMagic = [4]byte{'Q', 'R', 'I', 'L'}

const inputVersion = 1

// Marshal serializes the log with a versioned header.
func (l *InputLog) Marshal() []byte {
	a := wire.AppenderOf(make([]byte, 0, 64+l.SizeHint()))
	l.AppendMarshal(&a)
	return a.Buf
}

// AppendMarshal serializes the log onto a, letting containers (the
// bundle) reuse one buffer across their nested logs.
func (l *InputLog) AppendMarshal(a *wire.Appender) {
	a.Raw(inputMagic[:])
	a.Byte(inputVersion)
	a.Int(len(l.Records))
	for _, r := range l.Records {
		appendRecord(a, r)
	}
}

// SizeHint estimates the marshalled size: per-record framing plus the
// raw data payloads, which dominate syscall-heavy logs. Containers use
// it to pre-size their buffers without a trial encode.
func (l *InputLog) SizeHint() int {
	n := len(l.Records) * 24
	for i := range l.Records {
		n += len(l.Records[i].Data)
	}
	return n
}

func appendRecord(a *wire.Appender, r Record) {
	a.Byte(byte(r.Kind))
	a.Int(r.Thread)
	a.Int(r.Seq)
	a.Uvarint(r.TS)
	switch r.Kind {
	case KindSyscall:
		a.Uvarint(r.Sysno)
		a.Uvarint(r.Ret)
		a.Uvarint(r.Addr)
		a.Blob(r.Data)
	case KindSignal:
		a.Uvarint(r.Signo)
		a.Uvarint(r.Retired)
		a.Uvarint(r.RepDone)
	default:
		panic(fmt.Sprintf("capo: marshalling record of unknown kind %d", r.Kind))
	}
}

// ErrCorruptInput reports a malformed input log. Failures additionally
// wrap the shared chunk.ErrTruncated / chunk.ErrCorrupt sentinels, so
// harness triage classifies input-log faults exactly like chunk-log
// faults (errors.Is against either sentinel works).
var ErrCorruptInput = errors.New("capo: corrupt input log")

var (
	errInputTruncated = fmt.Errorf("%w: %w", ErrCorruptInput, chunk.ErrTruncated)
	errInputCorrupt   = fmt.Errorf("%w: %w", ErrCorruptInput, chunk.ErrCorrupt)
)

// inputDecoder is a flavored cursor plus a data arena: syscall Data
// payloads are copied into one shared backing array instead of one
// allocation per record, which is the dominant cost of decoding
// IO-heavy logs. Each Data slice is three-index capped so an append on
// one record can never bleed into its neighbor.
type inputDecoder struct {
	c     wire.Cursor
	arena []byte
	// alias hands out zero-copy subslices of the input instead of arena
	// copies — the mmap decode path, where the caller guarantees the
	// backing bytes outlive the records.
	alias bool
}

func newInputDecoder(data []byte) inputDecoder {
	return inputDecoder{c: wire.CursorWith(data, errInputTruncated, errInputCorrupt)}
}

func (d *inputDecoder) dataCopy(n uint64) ([]byte, error) {
	// Compare as uint64: a huge length must not overflow int.
	if n > uint64(d.c.Remaining()) {
		return nil, fmt.Errorf("%w: data length %d overruns buffer", errInputTruncated, n)
	}
	raw, err := d.c.Raw(int(n))
	if err != nil {
		return nil, err
	}
	if d.alias {
		return raw[:n:n], nil
	}
	if cap(d.arena)-len(d.arena) < int(n) {
		// Remaining input (plus this payload) bounds the data bytes still
		// to come, so the arena is allocated at most twice per log.
		d.arena = make([]byte, 0, int(n)+d.c.Remaining())
	}
	start := len(d.arena)
	d.arena = append(d.arena, raw...)
	return d.arena[start : start+int(n) : start+int(n)], nil
}

// UnmarshalInputLog parses a serialized input log. Every failure wraps
// ErrCorruptInput plus the shared chunk.ErrTruncated or chunk.ErrCorrupt
// sentinel; trailing bytes after the last record are rejected.
func UnmarshalInputLog(data []byte) (*InputLog, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("%w: short header", errInputTruncated)
	}
	if [4]byte(data[0:4]) != inputMagic {
		return nil, fmt.Errorf("%w: bad magic", errInputCorrupt)
	}
	if data[4] != inputVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errInputCorrupt, data[4])
	}
	rd := newInputDecoder(data)
	rd.c.Skip(5)
	count, err := rd.c.Uvarint()
	if err != nil {
		return nil, err
	}
	// Cap the pre-allocation: count is untrusted; remaining bytes bound
	// the real record count.
	capHint := count
	if max := uint64(rd.c.Remaining()); capHint > max {
		capHint = max
	}
	l := &InputLog{Records: make([]Record, 0, capHint)}
	for i := uint64(0); i < count; i++ {
		r, err := rd.readRecord()
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		l.Records = append(l.Records, r)
	}
	if err := rd.c.Done(); err != nil {
		return nil, err
	}
	return l, nil
}

// MarshalRecords serializes a bare record sequence (uvarint count plus
// records, no log header) — the payload format segment streams use for
// input batches.
func MarshalRecords(recs []Record) []byte {
	var a wire.Appender
	AppendRecords(&a, recs)
	return a.Buf
}

// AppendRecords is MarshalRecords onto an existing appender, used by
// the streaming flush path with a pooled buffer.
func AppendRecords(a *wire.Appender, recs []Record) {
	a.Grow(16 + len(recs)*24)
	a.Int(len(recs))
	for _, r := range recs {
		appendRecord(a, r)
	}
}

// UnmarshalRecords parses a bare record sequence written by
// MarshalRecords, requiring every byte to be consumed. Failures wrap the
// same sentinels as UnmarshalInputLog.
func UnmarshalRecords(data []byte) ([]Record, error) {
	rd := newInputDecoder(data)
	count, err := rd.c.Uvarint()
	if err != nil {
		return nil, err
	}
	capHint := count
	if max := uint64(rd.c.Remaining()); capHint > max {
		capHint = max
	}
	recs := make([]Record, 0, capHint)
	for i := uint64(0); i < count; i++ {
		r, err := rd.readRecord()
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		recs = append(recs, r)
	}
	if err := rd.c.Done(); err != nil {
		return nil, err
	}
	return recs, nil
}

func (rd *inputDecoder) readRecord() (Record, error) {
	var r Record
	kind, err := rd.c.Byte()
	if err != nil {
		return r, err
	}
	r.Kind = RecordKind(kind)
	thread, err := rd.c.Uvarint()
	if err != nil {
		return r, err
	}
	seq, err := rd.c.Uvarint()
	if err != nil {
		return r, err
	}
	ts, err := rd.c.Uvarint()
	if err != nil {
		return r, err
	}
	r.Thread, r.Seq, r.TS = int(thread), int(seq), ts
	switch r.Kind {
	case KindSyscall:
		if r.Sysno, err = rd.c.Uvarint(); err != nil {
			return r, err
		}
		if r.Ret, err = rd.c.Uvarint(); err != nil {
			return r, err
		}
		if r.Addr, err = rd.c.Uvarint(); err != nil {
			return r, err
		}
		n, err := rd.c.Uvarint()
		if err != nil {
			return r, err
		}
		if n > 0 {
			if r.Data, err = rd.dataCopy(n); err != nil {
				return r, err
			}
		}
	case KindSignal:
		if r.Signo, err = rd.c.Uvarint(); err != nil {
			return r, err
		}
		if r.Retired, err = rd.c.Uvarint(); err != nil {
			return r, err
		}
		if r.RepDone, err = rd.c.Uvarint(); err != nil {
			return r, err
		}
	default:
		return r, fmt.Errorf("%w: unknown record kind %d", errInputCorrupt, r.Kind)
	}
	return r, nil
}
