package segment

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/wire"
)

// Stream is a decoded (possibly salvaged) segmented recording.
type Stream struct {
	// Manifest is the stream's opening metadata.
	Manifest Manifest
	// ChunkLogs holds thread t's retained chunk entries at index t.
	ChunkLogs []*chunk.Log
	// InputLog holds the retained input records in stream order.
	InputLog *capo.InputLog
	// Checkpoints holds every flight-recorder checkpoint whose log
	// positions fall inside the retained prefix, in stream order.
	// Parallel replay partitions the salvaged prefix at these points,
	// and the last one starts a tail replay.
	Checkpoints []*capo.Checkpoint
	// Final is the reference final state; non-nil iff the stream is
	// complete (ends with an intact Final segment).
	Final *FinalPayload
}

// Report describes what a Salvage pass kept and why it stopped.
type Report struct {
	// BytesTotal is the input length; BytesKept the bytes covered by
	// segments that survived validation.
	BytesTotal int
	BytesKept  int
	// SegmentsKept counts surviving segments.
	SegmentsKept int
	// Complete reports an intact stream: a Final segment was reached and
	// nothing was cut.
	Complete bool
	// Reason says why scanning stopped short ("" when Complete).
	Reason string
	// Epochs counts flush epochs whose data was (at least partially)
	// retained.
	Epochs uint64
	// Horizon is the Lamport-timestamp cut applied to the retained logs:
	// items with TS >= Horizon were dropped to restore cross-thread
	// consistency. math.MaxUint64 means no cut was needed.
	Horizon uint64
	// DroppedEntries / DroppedRecords count retained-then-cut items.
	DroppedEntries int
	DroppedRecords int
	// CheckpointsDropped counts snapshots discarded because their log
	// positions exceed the salvaged prefix.
	CheckpointsDropped int

	// stopErr is the typed error that ended the scan (nil when the whole
	// stream parsed); Decode surfaces it so callers can classify with
	// errors.Is against the shared sentinels.
	stopErr error
}

// String renders the report for CLI output.
func (r *Report) String() string {
	if r.Complete {
		return fmt.Sprintf("stream complete: %d segments, %d bytes, %d epochs",
			r.SegmentsKept, r.BytesKept, r.Epochs)
	}
	s := fmt.Sprintf("stream torn: kept %d/%d bytes (%d segments, %d epochs); stopped: %s",
		r.BytesKept, r.BytesTotal, r.SegmentsKept, r.Epochs, r.Reason)
	if r.Horizon != math.MaxUint64 {
		s += fmt.Sprintf("; consistency cut at ts %d dropped %d chunk entries, %d input records",
			r.Horizon, r.DroppedEntries, r.DroppedRecords)
	}
	if r.CheckpointsDropped > 0 {
		s += fmt.Sprintf("; %d checkpoint(s) beyond the salvage horizon discarded", r.CheckpointsDropped)
	}
	return s
}

// rawSegment is one framed segment located in the input buffer.
type rawSegment struct {
	seq     uint32
	kind    Kind
	payload []byte
	end     int // offset just past the segment's trailer
}

// parseSegment validates the frame at data[pos:]: magic, length bounds
// and CRC. It does not interpret the payload.
func parseSegment(data []byte, pos int) (rawSegment, error) {
	var s rawSegment
	rest := data[pos:]
	if len(rest) < headerSize {
		return s, fmt.Errorf("%w: %d-byte segment header torn at offset %d", ErrTruncated, len(rest), pos)
	}
	c := wire.CursorWith(rest, ErrTruncated, ErrCorrupt)
	magic, _ := c.Raw(4)
	if [4]byte(magic) != streamMagic {
		return s, fmt.Errorf("%w: bad segment magic at offset %d", ErrCorrupt, pos)
	}
	seq, _ := c.U32()
	kind, _ := c.Byte()
	plen, _ := c.U32() // header reads cannot fail: headerSize checked above
	s.seq, s.kind = seq, Kind(kind)
	if plen > maxPayload {
		return s, fmt.Errorf("%w: segment payload length %d exceeds limit", ErrCorrupt, plen)
	}
	total := headerSize + int(plen) + trailerSize
	if len(rest) < total {
		return s, fmt.Errorf("%w: segment torn at offset %d (%d of %d bytes)", ErrTruncated, pos, len(rest), total)
	}
	payload, err := c.Raw(int(plen))
	if err != nil {
		return s, err
	}
	crc, err := c.U32()
	if err != nil {
		return s, err
	}
	if got := crc32.Checksum(rest[4:headerSize+int(plen)], castagnoli); got != crc {
		return s, fmt.Errorf("%w: checksum mismatch on segment seq %d (%s) at offset %d",
			ErrCorrupt, s.seq, s.kind, pos)
	}
	s.payload = payload
	s.end = pos + total
	return s, nil
}

// Offsets scans a stream and returns the end offset of every valid
// segment, in order, stopping at the first invalid one. For an intact
// stream the last offset equals len(data). Crash-injection sweeps use
// the offsets as the exact segment-boundary kill points.
func Offsets(data []byte) []int {
	var out []int
	pos := 0
	var expect uint32
	for pos < len(data) {
		s, err := parseSegment(data, pos)
		if err != nil || s.seq != expect {
			return out
		}
		pos = s.end
		expect++
		out = append(out, pos)
	}
	return out
}

// epochAccum tracks an open flush epoch during scanning.
type epochAccum struct {
	commit   Commit
	gotChunk []bool
	gotInput bool
}

func (e *epochAccum) complete() bool {
	for t, n := range e.commit.ChunkCount {
		if n > 0 && !e.gotChunk[t] {
			return false
		}
		if e.commit.InputCount[t] > 0 && !e.gotInput {
			return false
		}
	}
	return true
}

// scanner accumulates stream state.
type scanner struct {
	man     *Manifest
	enc     chunk.Encoding
	logs    []*chunk.Log
	lastTS  []uint64 // per-thread high-water timestamp, for monotonicity
	records []capo.Record
	ckpts   []*capo.Checkpoint
	final   *FinalPayload

	cur           *epochAccum
	epochs        uint64
	nextEpoch     uint64
	comp          []uint64 // per-thread completeness watermark
	unconstrained []bool   // exited with all data retained
}

// sealEpoch folds the open epoch into the per-thread completeness
// watermarks. mustComplete is set when the stream continues past the
// epoch (the writer never starts a new segment group before finishing
// the previous one, so an incomplete sealed-mid-stream epoch is
// structural corruption).
func (sc *scanner) sealEpoch(mustComplete bool) error {
	e := sc.cur
	if e == nil {
		return nil
	}
	if mustComplete && !e.complete() {
		return fmt.Errorf("%w: epoch %d data segments missing mid-stream", ErrCorrupt, e.commit.Epoch)
	}
	for t := range sc.comp {
		chunkOK := e.commit.ChunkCount[t] == 0 || e.gotChunk[t]
		inputOK := e.commit.InputCount[t] == 0 || e.gotInput
		if chunkOK && inputOK {
			sc.comp[t] = e.commit.Watermark[t]
			if e.commit.Exited[t] {
				sc.unconstrained[t] = true
			}
		} else {
			// The epoch declared data for t that never arrived: t lost
			// items, so it constrains the horizon even if an earlier epoch
			// marked it exited.
			sc.unconstrained[t] = false
		}
	}
	sc.epochs++
	sc.cur = nil
	return nil
}

// apply interprets one validated segment. An error stops the scan; the
// segment (and everything after it) is discarded.
func (sc *scanner) apply(s rawSegment) error {
	if sc.man == nil {
		if s.kind != KindManifest {
			return fmt.Errorf("%w: stream does not open with a manifest (got %s)", ErrCorrupt, s.kind)
		}
		m, err := decodeManifest(s.payload)
		if err != nil {
			return err
		}
		enc, err := chunk.ByID(m.EncodingID)
		if err != nil {
			return err
		}
		sc.man = &m
		sc.enc = enc
		sc.logs = make([]*chunk.Log, m.Threads)
		for t := range sc.logs {
			sc.logs[t] = &chunk.Log{Thread: t}
		}
		sc.lastTS = make([]uint64, m.Threads)
		sc.comp = make([]uint64, m.Threads)
		sc.unconstrained = make([]bool, m.Threads)
		return nil
	}
	if sc.final != nil {
		return fmt.Errorf("%w: segment after final", ErrCorrupt)
	}
	threads := sc.man.Threads

	switch s.kind {
	case KindManifest:
		return fmt.Errorf("%w: duplicate manifest", ErrCorrupt)

	case KindCommit:
		if err := sc.sealEpoch(true); err != nil {
			return err
		}
		c, err := decodeCommit(s.payload, threads)
		if err != nil {
			return err
		}
		if c.Epoch != sc.nextEpoch {
			return fmt.Errorf("%w: commit epoch %d, expected %d", ErrCorrupt, c.Epoch, sc.nextEpoch)
		}
		sc.nextEpoch++
		sc.cur = &epochAccum{commit: c, gotChunk: make([]bool, threads)}
		return nil

	case KindChunk:
		if sc.cur == nil {
			return fmt.Errorf("%w: chunk batch outside an epoch", ErrCorrupt)
		}
		rd := newReader(s.payload)
		tv, err := rd.Uvarint()
		if err != nil {
			return err
		}
		if tv >= uint64(threads) {
			return fmt.Errorf("%w: chunk batch for thread %d of %d", ErrCorrupt, tv, threads)
		}
		t := int(tv)
		if sc.cur.gotChunk[t] {
			return fmt.Errorf("%w: duplicate chunk batch for thread %d in epoch %d",
				ErrCorrupt, t, sc.cur.commit.Epoch)
		}
		count, err := rd.Uvarint()
		if err != nil {
			return err
		}
		if count != uint64(sc.cur.commit.ChunkCount[t]) {
			return fmt.Errorf("%w: chunk batch for thread %d carries %d entries, commit promised %d",
				ErrCorrupt, t, count, sc.cur.commit.ChunkCount[t])
		}
		wm := sc.cur.commit.Watermark[t]
		var prev *chunk.Entry
		for i := uint64(0); i < count; i++ {
			e, n, err := sc.enc.Decode(rd.Rest(), prev)
			if err != nil {
				return fmt.Errorf("epoch %d thread %d entry %d: %w", sc.cur.commit.Epoch, t, i, err)
			}
			rd.Skip(n)
			if e.TS < sc.lastTS[t] {
				return fmt.Errorf("%w: thread %d timestamp %d regresses below %d",
					ErrCorrupt, t, e.TS, sc.lastTS[t])
			}
			if e.TS >= wm {
				return fmt.Errorf("%w: thread %d entry ts %d at or above commit watermark %d",
					ErrCorrupt, t, e.TS, wm)
			}
			sc.lastTS[t] = e.TS
			sc.logs[t].Append(e)
			prev = &sc.logs[t].Entries[sc.logs[t].Len()-1]
		}
		if err := rd.Done(); err != nil {
			return err
		}
		sc.cur.gotChunk[t] = true
		return nil

	case KindInput:
		if sc.cur == nil {
			return fmt.Errorf("%w: input batch outside an epoch", ErrCorrupt)
		}
		if sc.cur.gotInput {
			return fmt.Errorf("%w: duplicate input batch in epoch %d", ErrCorrupt, sc.cur.commit.Epoch)
		}
		recs, err := capo.UnmarshalRecords(s.payload)
		if err != nil {
			return err
		}
		perThread := make([]int, threads)
		for _, r := range recs {
			if r.Thread < 0 || r.Thread >= threads {
				return fmt.Errorf("%w: input record for thread %d of %d", ErrCorrupt, r.Thread, threads)
			}
			if r.TS >= sc.cur.commit.Watermark[r.Thread] {
				return fmt.Errorf("%w: thread %d input record ts %d at or above commit watermark %d",
					ErrCorrupt, r.Thread, r.TS, sc.cur.commit.Watermark[r.Thread])
			}
			perThread[r.Thread]++
		}
		for t, n := range perThread {
			if n != sc.cur.commit.InputCount[t] {
				return fmt.Errorf("%w: input batch carries %d records for thread %d, commit promised %d",
					ErrCorrupt, n, t, sc.cur.commit.InputCount[t])
			}
		}
		sc.records = append(sc.records, recs...)
		sc.cur.gotInput = true
		return nil

	case KindCheckpoint:
		if err := sc.sealEpoch(true); err != nil {
			return err
		}
		cp, err := decodeCheckpoint(s.payload, threads)
		if err != nil {
			return err
		}
		sc.ckpts = append(sc.ckpts, cp)
		return nil

	case KindFinal:
		if err := sc.sealEpoch(true); err != nil {
			return err
		}
		f, err := decodeFinalPayload(s.payload, threads)
		if err != nil {
			return err
		}
		sc.final = f
		return nil
	}
	return fmt.Errorf("%w: unknown segment kind %d", ErrCorrupt, uint8(s.kind))
}

// Salvage scans a (possibly damaged) segmented stream, validates every
// segment's checksum and structure, discards the torn or corrupt suffix,
// and reconstructs the longest consistent recording prefix.
//
// Consistency is restored with a Lamport-timestamp horizon cut. Each
// sealed epoch's commit proves that thread t's retained items are
// complete through the commit's watermark W[t] (items emitted before the
// flush have TS < W[t]; anything later has TS >= W[t]). The horizon H is
// the minimum completeness watermark over non-exited threads; dropping
// every retained item with TS >= H yields a causally closed prefix: a
// kept chunk's conflicting predecessor on any thread u carries a
// strictly smaller timestamp < H <= comp[u] and is therefore kept too —
// so prefix replay sees every dependency it needs.
//
// Salvage errors (with a typed, sentinel-wrapped error) only when no
// usable manifest exists; any other damage yields a shorter prefix and a
// Report explaining the cut.
func Salvage(data []byte) (*Stream, *Report, error) {
	rep := &Report{BytesTotal: len(data), Horizon: math.MaxUint64}
	sc := &scanner{}

	pos := 0
	var expect uint32
	var stop error
	for pos < len(data) {
		s, err := parseSegment(data, pos)
		if err != nil {
			stop = err
			break
		}
		if s.seq != expect {
			stop = fmt.Errorf("%w: segment sequence %d at offset %d, expected %d",
				ErrCorrupt, s.seq, pos, expect)
			break
		}
		if err := sc.apply(s); err != nil {
			stop = err
			break
		}
		pos = s.end
		expect++
		rep.SegmentsKept++
		rep.BytesKept = pos
	}
	if sc.man == nil {
		if stop == nil {
			stop = fmt.Errorf("%w: empty stream", ErrTruncated)
		}
		return nil, rep, fmt.Errorf("segment: no salvageable manifest: %w", stop)
	}
	rep.stopErr = stop
	if stop != nil {
		rep.Reason = stop.Error()
	} else if sc.final == nil {
		rep.Reason = "stream ends without a final segment"
	}
	if err := sc.sealEpoch(false); err != nil {
		// Unreachable (mustComplete=false never errors), kept for safety.
		rep.Reason = err.Error()
	}
	rep.Epochs = sc.epochs

	st := &Stream{
		Manifest:  *sc.man,
		ChunkLogs: sc.logs,
		InputLog:  &capo.InputLog{Records: sc.records},
		Final:     sc.final,
	}

	if sc.final != nil && stop == nil {
		rep.Complete = true
	} else {
		// Horizon cut: drop retained items at or above the minimum
		// completeness watermark of any non-exited thread.
		h := uint64(math.MaxUint64)
		for t := range sc.comp {
			if !sc.unconstrained[t] && sc.comp[t] < h {
				h = sc.comp[t]
			}
		}
		rep.Horizon = h
		if h != math.MaxUint64 {
			for _, l := range st.ChunkLogs {
				keep := sort.Search(len(l.Entries), func(i int) bool { return l.Entries[i].TS >= h })
				rep.DroppedEntries += len(l.Entries) - keep
				l.Entries = l.Entries[:keep]
			}
			kept := st.InputLog.Records[:0]
			for _, r := range st.InputLog.Records {
				if r.TS < h {
					kept = append(kept, r)
				} else {
					rep.DroppedRecords++
				}
			}
			st.InputLog.Records = kept
		}
		// A complete stream whose trailing garbage was discarded still has
		// its reference state; everything before Final was sealed.
		rep.Complete = sc.final != nil
	}

	// Keep every checkpoint whose positions fall inside the retained
	// (post-cut) prefix. The horizon cut only removes suffixes, so
	// usable checkpoints always form a prefix of those scanned; the last
	// one doubles as the resume point for tail replay.
	for _, cp := range sc.ckpts {
		if checkpointUsable(cp, st) {
			st.Checkpoints = append(st.Checkpoints, cp)
		} else {
			rep.CheckpointsDropped++
		}
	}
	return st, rep, nil
}

func checkpointUsable(cp *capo.Checkpoint, st *Stream) bool {
	if len(cp.ChunkPos) != len(st.ChunkLogs) {
		return false
	}
	for t, pos := range cp.ChunkPos {
		if pos > st.ChunkLogs[t].Len() {
			return false
		}
	}
	return cp.InputPos <= st.InputLog.Len()
}

// Decode strictly parses an intact stream: every byte must be consumed,
// every epoch complete, and a Final segment present. Damage that Salvage
// would work around is an error here.
func Decode(data []byte) (*Stream, error) {
	st, rep, err := Salvage(data)
	if err != nil {
		return nil, err
	}
	if rep.stopErr != nil {
		return nil, rep.stopErr
	}
	if !rep.Complete {
		return nil, fmt.Errorf("%w: stream ends without a final segment", ErrTruncated)
	}
	if rep.BytesKept != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-rep.BytesKept)
	}
	return st, nil
}
