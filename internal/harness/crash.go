package harness

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/segment"
)

// The stream recordings the stream fault classes damage: a flush every
// 8 chunks and a flight-recorder checkpoint every 3,000 instructions,
// so even short workloads span many segments and checkpoints.
const (
	streamFlushEveryChunks      = 8
	streamCheckpointEveryInstrs = 3000
)

// stream is a pristine segmented recording and the reference its
// damaged copies are judged against: its own salvage, and that
// salvage's replay.
type stream struct {
	data     []byte
	offs     []int // segment end offsets
	ref      *core.Salvaged
	inputs   map[int][]capo.Record // ref's input records, per thread
	res      *replay.Result
	maxSteps uint64
}

// recordStream records prog under cfg as a segmented stream and
// derives its reference.
func recordStream(prog *isa.Program, cfg machine.Config) (*stream, error) {
	cfg.FlushEveryChunks = streamFlushEveryChunks
	cfg.CheckpointEveryInstrs = streamCheckpointEveryInstrs
	s := &stream{}
	var buf bytes.Buffer
	if _, err := core.StreamRecord(prog, cfg, &buf); err != nil {
		return nil, fmt.Errorf("stream recording failed: %w", err)
	}
	s.data = buf.Bytes()
	s.offs = segment.Offsets(s.data)
	if n := len(s.offs); n < 3 || s.offs[n-1] != len(s.data) {
		return nil, fmt.Errorf("pristine stream of %d bytes does not scan into whole segments", len(s.data))
	}
	var err error
	if s.ref, err = core.SalvageStream(s.data); err != nil {
		return nil, fmt.Errorf("pristine stream does not salvage: %w", err)
	}
	s.inputs = map[int][]capo.Record{}
	for _, r := range s.ref.Bundle.InputLog.Records {
		s.inputs[r.Thread] = append(s.inputs[r.Thread], r)
	}
	if s.res, s.maxSteps, err = replayPristine(prog, s.ref.Bundle); err != nil {
		return nil, err
	}
	return s, nil
}

// cut checks the stream torn at byte n, as a recorder crash leaves it.
func (s *stream) cut(prog *isa.Program, n int) (Outcome, string) {
	out, detail := s.check(prog, s.data[:n], segOf(s.offs, n))
	return out, fmt.Sprintf("cut at byte %d/%d: %s", n, len(s.data), detail)
}

// flip checks the stream with one bit flipped, as disk or transport
// corruption leaves it.
func (s *stream) flip(prog *isa.Program, pos, bit int) (Outcome, string) {
	flipped := append([]byte(nil), s.data...)
	flipped[pos] ^= 1 << bit
	out, detail := s.check(prog, flipped, segOf(s.offs, pos))
	return out, fmt.Sprintf("bit %d of byte %d/%d flipped: %s", bit, pos, len(s.data), detail)
}

// check classifies one damaged copy of the stream whose first damaged
// segment is seg (len(s.offs) when it is whole). Salvage must fail
// with a typed error, which only damage to the manifest may cause, or
// keep no damaged segment and pass checkSalvage. A salvage of the
// whole stream verifies (OutcomeVerify), one of a torn stream is a
// prefix, and one of a corrupted stream counts as detected at decode,
// since the CRC discarded the damaged segment. Anything else is
// OutcomeSilent.
func (s *stream) check(prog *isa.Program, damaged []byte, seg int) (Outcome, string) {
	sv, err := core.SalvageStream(damaged)
	switch {
	case err != nil && seg > 0:
		return OutcomeSilent, fmt.Sprintf("damage in segment %d lost the whole recording: %v", seg, err)
	case err != nil && (errors.Is(err, chunk.ErrTruncated) || errors.Is(err, chunk.ErrCorrupt)):
		return OutcomeDecode, err.Error()
	case err != nil:
		return OutcomeSilent, "untyped salvage error: " + err.Error()
	case sv.Report.SegmentsKept > seg:
		return OutcomeSilent, fmt.Sprintf("kept %d segments, damage was in segment %d", sv.Report.SegmentsKept, seg)
	}
	if err := s.checkSalvage(prog, sv); err != nil {
		return OutcomeSilent, err.Error()
	}
	switch {
	case seg == len(s.offs) && sv.Bundle.Partial:
		return OutcomeSilent, "whole stream salvaged as partial"
	case seg == len(s.offs):
		return OutcomeVerify, "whole stream verified"
	case len(damaged) == len(s.data):
		return OutcomeDecode, fmt.Sprintf("corrupt segment %d discarded (%s)", seg, sv.Report)
	}
	return OutcomePrefix, fmt.Sprintf("salvaged prefix (%s)", sv.Report)
}

// checkSalvage holds one salvage of a damaged copy to the crash
// contract against the pristine salvage: every log is an entry-wise
// prefix of the pristine one, it replays within the step budget, and
// the replay is a prefix of the pristine replay (output bytes, retired
// counts). A whole salvage must verify exactly.
func (s *stream) checkSalvage(prog *isa.Program, sv *core.Salvaged) error {
	b, rb := sv.Bundle, s.ref.Bundle
	if len(b.ChunkLogs) != len(rb.ChunkLogs) {
		return fmt.Errorf("salvaged %d chunk logs, pristine stream has %d", len(b.ChunkLogs), len(rb.ChunkLogs))
	}
	for t, l := range b.ChunkLogs {
		orig := rb.ChunkLogs[t]
		if l.Len() > orig.Len() {
			return fmt.Errorf("thread %d: salvaged %d entries, pristine stream has %d", t, l.Len(), orig.Len())
		}
		for i, e := range l.Entries {
			if e != orig.Entries[i] {
				return fmt.Errorf("thread %d entry %d: salvaged %v, pristine stream has %v", t, i, e, orig.Entries[i])
			}
		}
	}
	// Per-thread prefix, not positional: a torn epoch's horizon cut can
	// trim a different number of trailing records per thread.
	next := map[int]int{}
	for _, r := range b.InputLog.Records {
		origs, i := s.inputs[r.Thread], next[r.Thread]
		if i >= len(origs) || r.String() != origs[i].String() {
			return fmt.Errorf("input record %v is not record %d of the pristine thread-%d sequence", r, i, r.Thread)
		}
		next[r.Thread] = i + 1
	}
	rr, err := core.ReplayBounded(prog, b, s.maxSteps)
	if err != nil {
		return fmt.Errorf("salvaged recording does not replay: %w", err)
	}
	if !bytes.HasPrefix(s.res.Output, rr.Output) {
		return fmt.Errorf("replayed %d output bytes are not a prefix of the pristine %d", len(rr.Output), len(s.res.Output))
	}
	for t, r := range rr.RetiredPerThread {
		if r > s.res.RetiredPerThread[t] {
			return fmt.Errorf("thread %d replayed %d instructions past the pristine %d", t, r, s.res.RetiredPerThread[t])
		}
	}
	if !b.Partial {
		if err := core.Verify(b, rr); err != nil {
			return fmt.Errorf("whole salvage failed verification: %w", err)
		}
	}
	return nil
}

// segOf returns the index of the segment containing byte pos, given the
// segment end offsets of the pristine stream; a position at or past the
// end returns len(offs).
func segOf(offs []int, pos int) int {
	for i, end := range offs {
		if pos < end {
			return i
		}
	}
	return len(offs)
}
