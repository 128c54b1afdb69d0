package harness

import (
	"bytes"
	"fmt"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/wire"
)

// FaultClass names one family of single-fault log corruptions.
type FaultClass string

// The fault classes. Byte-level classes corrupt a serialized chunk-log or
// input-log blob and go through the real decoder; structural classes
// corrupt the decoded form directly (their serialized form always
// re-decodes, so decode-stage detection is not available to them by
// construction).
const (
	// FaultBitFlip flips one bit anywhere in a serialized log blob.
	FaultBitFlip FaultClass = "bit-flip"
	// FaultTruncate cuts a serialized log blob at an arbitrary point.
	FaultTruncate FaultClass = "truncate"
	// FaultLenLie rewrites a header count field to lie about how many
	// entries/records follow.
	FaultLenLie FaultClass = "length-lie"
	// FaultDrop deletes one chunk entry or input record.
	FaultDrop FaultClass = "drop"
	// FaultDuplicate duplicates one chunk entry or input record in place.
	FaultDuplicate FaultClass = "duplicate"
	// FaultReorder swaps two adjacent same-thread log items: the payloads
	// of neighbouring chunk entries, or the timestamps (and hence the
	// replay order) of neighbouring input records.
	FaultReorder FaultClass = "reorder"
	// FaultSizeLie perturbs one chunk's instruction counter by a few
	// units — the classic off-by-N the paper's REP-counting lesson is
	// about.
	FaultSizeLie FaultClass = "size-lie"
	// FaultPayload corrupts an input record's replay-relevant payload:
	// syscall result, copied data, syscall number, or a signal's delivery
	// position.
	FaultPayload FaultClass = "payload"
)

// AllFaults returns every fault class, in report order.
func AllFaults() []FaultClass {
	return []FaultClass{
		FaultBitFlip, FaultTruncate, FaultLenLie,
		FaultDrop, FaultDuplicate, FaultReorder, FaultSizeLie, FaultPayload,
	}
}

// FaultByName resolves a class name.
func FaultByName(name string) (FaultClass, bool) {
	for _, c := range AllFaults() {
		if string(c) == name {
			return c, true
		}
	}
	return "", false
}

// Outcome classifies one injection attempt.
type Outcome int

// Injection outcomes. Inert and Benign mutations are re-rolled by the
// matrix runner; the other four are terminal classifications.
const (
	// OutcomeInert: the mutation did not change replay semantics at all
	// (e.g. a bit flip confined to a field replay ignores).
	OutcomeInert Outcome = iota
	// OutcomeDecode: the corrupted blob was rejected by the log decoder.
	OutcomeDecode
	// OutcomeReplay: replay detected the corruption (divergence or
	// contained execution fault).
	OutcomeReplay
	// OutcomeVerify: replay ran to completion but final-state
	// verification against the (mutated) bundle failed.
	OutcomeVerify
	// OutcomeBenign: replay succeeded AND reproduced the original
	// recording's reference state exactly — the mutation was a legal
	// alternative serialization of the same execution (MRR logs are
	// conservative), so there was nothing to detect.
	OutcomeBenign
	// OutcomeSilent: replay succeeded, verification against the mutated
	// bundle passed, and the execution differs from the original — a
	// wrong execution accepted as correct. This is the conformance
	// failure the harness exists to catch.
	OutcomeSilent
	// OutcomePrefix: a torn stream salvaged to a consistent prefix that
	// replayed as a verified prefix of the original execution — the
	// crash sweep's good outcome (see CrashSweep).
	OutcomePrefix
	// OutcomeWindow: a torn flight-recorder window salvaged to a
	// replayable suffix anchored at its surviving base checkpoint — the
	// windowed-stream variant of OutcomePrefix.
	OutcomeWindow
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeInert:
		return "inert"
	case OutcomeDecode:
		return "decode"
	case OutcomeReplay:
		return "replay"
	case OutcomeVerify:
		return "verify"
	case OutcomeBenign:
		return "benign"
	case OutcomeSilent:
		return "SILENT"
	case OutcomePrefix:
		return "prefix"
	case OutcomeWindow:
		return "window"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// mutator is a deterministic xorshift64 stream driving site selection.
type mutator struct{ rng uint64 }

func (m *mutator) next() uint64 {
	if m.rng == 0 {
		m.rng = 0x2545f4914f6cdd1d
	}
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	return m.rng
}

// pick returns a value in [0, n).
func (m *mutator) pick(n int) int { return int(m.next() % uint64(n)) }

// injectOnce applies one single-fault mutation of class to a copy of
// rec's logs, then classifies the outcome: decode rejection, replay
// divergence, verification failure, benign equivalence against the
// original, or silent acceptance of a wrong execution. origKey is the
// pristine bundle's scheduleKey; maxSteps bounds mutated replays so a
// lied chunk counter cannot hang the harness.
func injectOnce(prog *isa.Program, rec *core.Bundle, origKey []byte, maxSteps uint64,
	class FaultClass, m *mutator) (Outcome, string) {

	mut, detail, decodeErr := applyFault(rec, class, m)
	if decodeErr != nil {
		return OutcomeDecode, detail + ": " + decodeErr.Error()
	}
	if mut == nil {
		return OutcomeInert, detail // no viable site this attempt
	}
	if bytes.Equal(scheduleKey(mut), origKey) {
		return OutcomeInert, detail
	}
	rr, err := core.ReplayBounded(prog, mut, maxSteps)
	if err != nil {
		return OutcomeReplay, detail + ": " + err.Error()
	}
	if err := core.Verify(mut, rr); err != nil {
		return OutcomeVerify, detail + ": " + err.Error()
	}
	if err := core.Verify(rec, rr); err == nil {
		return OutcomeBenign, detail
	}
	return OutcomeSilent, detail + ": replay of mutated log verified but diverged from the original execution"
}

// applyFault produces a mutated copy of rec (or a decode error for
// byte-level faults the decoder rejects). A nil bundle with nil error
// means no viable injection site was found on this attempt.
func applyFault(rec *core.Bundle, class FaultClass, m *mutator) (*core.Bundle, string, error) {
	switch class {
	case FaultBitFlip, FaultTruncate, FaultLenLie:
		return applyByteFault(rec, class, m)
	case FaultDrop, FaultDuplicate, FaultReorder, FaultSizeLie, FaultPayload:
		return applyStructuralFault(rec, class, m)
	}
	return nil, fmt.Sprintf("unknown fault class %q", class), nil
}

// applyByteFault corrupts the serialized form of one log and runs it
// through the real decoder, exactly as a corrupted file on disk would be.
func applyByteFault(rec *core.Bundle, class FaultClass, m *mutator) (*core.Bundle, string, error) {
	// Choose a victim: one thread's chunk log, or the input log.
	victim := m.pick(rec.Threads + 1)
	var blob []byte
	var where string
	if victim < rec.Threads {
		blob = rec.ChunkLogs[victim].Marshal(chunk.Delta{})
		where = fmt.Sprintf("chunk log t%d", victim)
	} else {
		blob = rec.InputLog.Marshal()
		where = "input log"
	}

	var detail string
	switch class {
	case FaultBitFlip:
		if len(blob) == 0 {
			return nil, "empty blob", nil
		}
		off := m.pick(len(blob))
		bit := m.pick(8)
		blob = append([]byte(nil), blob...)
		blob[off] ^= 1 << bit
		detail = fmt.Sprintf("%s: bit %d of byte %d/%d flipped", where, bit, off, len(blob))
	case FaultTruncate:
		if len(blob) == 0 {
			return nil, "empty blob", nil
		}
		cut := m.pick(len(blob))
		detail = fmt.Sprintf("%s: truncated to %d/%d bytes", where, cut, len(blob))
		blob = append([]byte(nil), blob[:cut]...)
	case FaultLenLie:
		lied, d, ok := lieAboutCount(blob, victim < rec.Threads, m)
		if !ok {
			return nil, "count lie not applicable", nil
		}
		blob, detail = lied, where+": "+d
	}

	// Decode through the real parser.
	mut := copyBundle(rec)
	if victim < rec.Threads {
		l, err := chunk.UnmarshalLog(blob)
		if err != nil {
			return nil, detail, err
		}
		mut.ChunkLogs[victim] = l
	} else {
		il, err := capo.UnmarshalInputLog(blob)
		if err != nil {
			return nil, detail, err
		}
		mut.InputLog = il
	}
	return mut, detail, nil
}

// lieAboutCount rewrites the entry/record count uvarint in a log header,
// keeping the body bytes untouched — the classic length-field lie.
func lieAboutCount(blob []byte, isChunkLog bool, m *mutator) (out []byte, detail string, ok bool) {
	// Header prefix before the count varint: chunk logs carry
	// magic[4] version[1] encodingID[1] thread[uvarint]; input logs
	// magic[4] version[1].
	pos := 5
	if isChunkLog {
		pos = 6
		c := wire.CursorOf(blob[pos:])
		if _, err := c.Uvarint(); err != nil {
			return nil, "", false
		}
		pos += c.Pos()
	}
	c := wire.CursorOf(blob[pos:])
	count, err := c.Uvarint()
	if err != nil {
		return nil, "", false
	}
	n := c.Pos()
	deltas := []int64{1, 3, -1, 7}
	d := deltas[m.pick(len(deltas))]
	lied := int64(count) + d
	if lied < 0 {
		lied = 0
	}
	a := wire.AppenderOf(append(out, blob[:pos]...))
	a.Uvarint(uint64(lied))
	a.Raw(blob[pos+n:])
	return a.Buf, fmt.Sprintf("count %d rewritten to %d", count, lied), true
}

// applyStructuralFault corrupts the decoded form of one log.
func applyStructuralFault(rec *core.Bundle, class FaultClass, m *mutator) (*core.Bundle, string, error) {
	mut := copyBundle(rec)
	switch class {
	case FaultDrop:
		if m.next()%2 == 0 {
			t, l := pickChunkLog(mut, m, 1)
			if l == nil {
				return nil, "no chunk entries", nil
			}
			i := m.pick(len(l.Entries))
			dropped := l.Entries[i]
			l.Entries = append(l.Entries[:i], l.Entries[i+1:]...)
			return mut, fmt.Sprintf("chunk log t%d: entry %d (%v) dropped", t, i, dropped), nil
		}
		if len(mut.InputLog.Records) == 0 {
			return nil, "no input records", nil
		}
		i := m.pick(len(mut.InputLog.Records))
		dropped := mut.InputLog.Records[i]
		mut.InputLog.Records = append(mut.InputLog.Records[:i], mut.InputLog.Records[i+1:]...)
		return mut, fmt.Sprintf("input log: record %d (%v) dropped", i, dropped), nil

	case FaultDuplicate:
		if m.next()%2 == 0 {
			t, l := pickChunkLog(mut, m, 1)
			if l == nil {
				return nil, "no chunk entries", nil
			}
			i := m.pick(len(l.Entries))
			l.Entries = append(l.Entries[:i+1], l.Entries[i:]...)
			return mut, fmt.Sprintf("chunk log t%d: entry %d duplicated", t, i), nil
		}
		if len(mut.InputLog.Records) == 0 {
			return nil, "no input records", nil
		}
		i := m.pick(len(mut.InputLog.Records))
		recs := mut.InputLog.Records
		mut.InputLog.Records = append(recs[:i+1], recs[i:]...)
		return mut, fmt.Sprintf("input log: record %d duplicated", i), nil

	case FaultReorder:
		if m.next()%2 == 0 {
			t, l := pickChunkLog(mut, m, 2)
			if l == nil {
				return nil, "no adjacent chunk pair", nil
			}
			i := m.pick(len(l.Entries) - 1)
			a, b := &l.Entries[i], &l.Entries[i+1]
			if a.Size == b.Size && a.RepResidue == b.RepResidue {
				return nil, "adjacent chunks identical", nil
			}
			// Swap payloads, keep the timestamps in place: the stream
			// stays monotonic but the chunks arrive in the wrong order.
			a.Size, b.Size = b.Size, a.Size
			a.Reason, b.Reason = b.Reason, a.Reason
			a.RepResidue, b.RepResidue = b.RepResidue, a.RepResidue
			return mut, fmt.Sprintf("chunk log t%d: entries %d,%d reordered", t, i, i+1), nil
		}
		// Swap the timestamps of two consecutive same-thread records:
		// replay consumes them in TS order, so this reorders the kernel
		// events.
		pairs := adjacentSameThread(mut.InputLog.Records)
		if len(pairs) == 0 {
			return nil, "no same-thread record pair", nil
		}
		p := pairs[m.pick(len(pairs))]
		recs := mut.InputLog.Records
		if recs[p[0]].TS == recs[p[1]].TS {
			return nil, "records share a timestamp", nil
		}
		recs[p[0]].TS, recs[p[1]].TS = recs[p[1]].TS, recs[p[0]].TS
		return mut, fmt.Sprintf("input log: records %d,%d (t%d) reordered", p[0], p[1], recs[p[0]].Thread), nil

	case FaultSizeLie:
		t, l := pickChunkLog(mut, m, 1)
		if l == nil {
			return nil, "no chunk entries", nil
		}
		i := m.pick(len(l.Entries))
		e := &l.Entries[i]
		delta := int64(1 + m.pick(3))
		if m.next()%2 == 0 && e.Size >= uint64(delta) {
			e.Size -= uint64(delta)
			delta = -delta
		} else {
			e.Size += uint64(delta)
		}
		return mut, fmt.Sprintf("chunk log t%d: entry %d size lied by %+d", t, i, delta), nil

	case FaultPayload:
		if len(mut.InputLog.Records) == 0 {
			return nil, "no input records", nil
		}
		i := m.pick(len(mut.InputLog.Records))
		r := &mut.InputLog.Records[i]
		if r.Kind == capo.KindSignal {
			if m.next()%2 == 0 {
				r.Retired++
				return mut, fmt.Sprintf("input log: signal %d delivery position lied (+1)", i), nil
			}
			r.RepDone++
			return mut, fmt.Sprintf("input log: signal %d REP residue lied (+1)", i), nil
		}
		switch m.pick(4) {
		case 0:
			r.Ret ^= 1 + m.next()%255
			return mut, fmt.Sprintf("input log: syscall %d result corrupted", i), nil
		case 1:
			if len(r.Data) == 0 {
				return nil, "syscall carries no data", nil
			}
			off := m.pick(len(r.Data))
			r.Data = append([]byte(nil), r.Data...)
			r.Data[off] ^= byte(1 + m.next()%255)
			return mut, fmt.Sprintf("input log: syscall %d data byte %d corrupted", i, off), nil
		case 2:
			alt := []uint64{capo.SysGetTime, capo.SysRandom, capo.SysGetTID, capo.SysYield}
			was := r.Sysno
			r.Sysno = alt[m.pick(len(alt))]
			if r.Sysno == was {
				return nil, "sysno swap landed on itself", nil
			}
			return mut, fmt.Sprintf("input log: syscall %d number %d rewritten to %d", i, was, r.Sysno), nil
		default:
			if len(r.Data) == 0 {
				return nil, "syscall carries no data", nil
			}
			r.Addr += 8
			return mut, fmt.Sprintf("input log: syscall %d destination address shifted", i), nil
		}
	}
	return nil, fmt.Sprintf("unknown structural class %q", class), nil
}

// pickChunkLog returns a random thread's chunk log with at least min
// entries, or nil when none qualifies.
func pickChunkLog(b *core.Bundle, m *mutator, min int) (int, *chunk.Log) {
	start := m.pick(b.Threads)
	for k := 0; k < b.Threads; k++ {
		t := (start + k) % b.Threads
		if len(b.ChunkLogs[t].Entries) >= min {
			return t, b.ChunkLogs[t]
		}
	}
	return -1, nil
}

// adjacentSameThread lists index pairs of consecutive records belonging
// to the same thread (consecutive in that thread's subsequence).
func adjacentSameThread(recs []capo.Record) [][2]int {
	last := map[int]int{}
	var out [][2]int
	for i, r := range recs {
		if j, ok := last[r.Thread]; ok {
			out = append(out, [2]int{j, i})
		}
		last[r.Thread] = i
	}
	return out
}

// copyBundle deep-copies the parts of a bundle the mutation engine may
// touch (logs); reference state and metadata are shared, since no fault
// class rewrites them.
func copyBundle(b *core.Bundle) *core.Bundle {
	out := *b
	out.ChunkLogs = make([]*chunk.Log, len(b.ChunkLogs))
	for i, l := range b.ChunkLogs {
		cl := &chunk.Log{Thread: l.Thread, Entries: append([]chunk.Entry(nil), l.Entries...)}
		out.ChunkLogs[i] = cl
	}
	out.InputLog = &capo.InputLog{Records: append([]capo.Record(nil), b.InputLog.Records...)}
	return &out
}
