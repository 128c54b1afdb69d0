package harness

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/replay"
	"repro/internal/segment"
)

// Stream-level fault classes, swept by CrashSweep rather than the
// bundle-mutation matrix: they corrupt the segmented on-disk stream a
// crashed recorder leaves behind, not a decoded recording.
const (
	// FaultTornWrite kills the stream writer mid-write: the stream is cut
	// at a segment boundary or at an arbitrary intra-segment offset.
	FaultTornWrite FaultClass = "torn-write"
	// FaultStreamCorrupt flips one bit somewhere in the stream, as disk
	// or transport corruption would.
	FaultStreamCorrupt FaultClass = "stream-corrupt"
	// FaultWindowTorn tears a flight-recorder window dump: recording ran
	// with RetainCheckpoints, and the rendered ring is cut at a segment
	// boundary or an arbitrary offset mid-dump.
	FaultWindowTorn FaultClass = "window-torn"
	// FaultWindowCorrupt flips one bit in a flight-recorder window dump,
	// inside or outside the epochs the window retained.
	FaultWindowCorrupt FaultClass = "window-corrupt"
)

// CrashConfig parameterises the crash-consistency sweep.
type CrashConfig struct {
	// Workloads and Cores span the matrix (defaults below).
	Workloads []string
	Cores     []int
	// Threads is the thread count per workload (default 4).
	Threads int
	// RandomCuts is the number of random intra-segment cut points per
	// cell, on top of every segment boundary (default 12).
	RandomCuts int
	// BitFlips is the number of single-bit stream corruptions per cell
	// (default 12).
	BitFlips int
	// Seed drives schedules and injection sites. Every value is honored,
	// including 0 — zero is a valid seed, not a request for the default
	// (DefaultCrashConfig uses 1).
	Seed uint64
	// FlushEveryChunks is the stream flush cadence; kept small so even
	// short workloads span many epochs (default 8).
	FlushEveryChunks uint64
	// CheckpointEveryInstrs arms the flight recorder so checkpoint
	// segments land inside the sweep (default 3000).
	CheckpointEveryInstrs uint64
	// Window is the retention window (checkpoint intervals) for the
	// windowed-stream fault cells (default 2).
	Window uint64
}

// DefaultCrashConfig is the acceptance sweep: three workloads × three
// core counts, every segment boundary plus 12 random cuts and 12 bit
// flips each.
func DefaultCrashConfig() CrashConfig {
	return CrashConfig{
		Workloads:             []string{"counter", "pingpong", "ioheavy", "reqserver"},
		Cores:                 []int{1, 2, 4},
		Threads:               4,
		RandomCuts:            12,
		BitFlips:              12,
		Seed:                  1,
		FlushEveryChunks:      8,
		CheckpointEveryInstrs: 3000,
		Window:                2,
	}
}

func (c *CrashConfig) fill() {
	d := DefaultCrashConfig()
	if len(c.Workloads) == 0 {
		c.Workloads = d.Workloads
	}
	if len(c.Cores) == 0 {
		c.Cores = d.Cores
	}
	if c.Threads <= 0 {
		c.Threads = d.Threads
	}
	if c.RandomCuts <= 0 {
		c.RandomCuts = d.RandomCuts
	}
	if c.BitFlips <= 0 {
		c.BitFlips = d.BitFlips
	}
	// Seed is deliberately not defaulted: 0 is a valid seed (see Config).
	if c.FlushEveryChunks == 0 {
		c.FlushEveryChunks = d.FlushEveryChunks
	}
	if c.CheckpointEveryInstrs == 0 {
		c.CheckpointEveryInstrs = d.CheckpointEveryInstrs
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
}

// CrashSweep records every (workload, cores) cell as a segmented stream,
// then simulates recorder crashes (a cut at every segment boundary plus
// random intra-segment offsets) and stream corruption (single bit
// flips). Every crash point must yield either an explicit typed decode
// error or a verified prefix replay — never a silent wrong replay. The
// findings land in a Report whose cells carry the stream fault classes.
func CrashSweep(cfg CrashConfig) (*Report, error) {
	cfg.fill()
	rep := &Report{Config: Config{
		Workloads: cfg.Workloads, Cores: cfg.Cores, Threads: cfg.Threads, Seed: cfg.Seed,
	}}
	for _, name := range cfg.Workloads {
		prog, err := buildProgram(name, cfg.Threads)
		if err != nil {
			return nil, err
		}
		for _, cores := range cfg.Cores {
			if err := runCrashCell(cfg, rep, name, prog, cores); err != nil {
				return nil, fmt.Errorf("harness: crash sweep %s on %d cores: %w", name, cores, err)
			}
		}
	}
	return rep, nil
}

func runCrashCell(cfg CrashConfig, rep *Report, name string, prog *isa.Program, cores int) error {
	mcfg := recordConfig(cores, cfg.Threads, cfg.Seed)
	mcfg.FlushEveryChunks = cfg.FlushEveryChunks
	mcfg.CheckpointEveryInstrs = cfg.CheckpointEveryInstrs
	var buf bytes.Buffer
	full, err := core.StreamRecord(prog, mcfg, &buf)
	if err != nil {
		return fmt.Errorf("stream recording failed: %w", err)
	}
	data := buf.Bytes()
	offs := segment.Offsets(data)
	if len(offs) < 3 || offs[len(offs)-1] != len(data) {
		return fmt.Errorf("pristine stream scans to %d segments covering %d/%d bytes",
			len(offs), offs[len(offs)-1], len(data))
	}
	maxSteps := full.RecordStats.Retired*4 + 100_000
	m := &mutator{rng: cfg.Seed ^ hashCell(name, cores, 0x7c)}

	// Torn writes: the writer dies at every segment boundary and at
	// random offsets inside segments.
	cell := Cell{Workload: name, Cores: cores, Class: FaultTornWrite}
	cuts := append([]int(nil), offs...)
	for i := 0; i < cfg.RandomCuts; i++ {
		cuts = append(cuts, 1+m.pick(len(data)-1))
	}
	for _, cut := range cuts {
		out, detail := checkCrashPoint(prog, full, data[:cut], cut == len(data), maxSteps)
		cell.count(out, fmt.Sprintf("cut at byte %d/%d: %s", cut, len(data), detail))
	}
	rep.Cells = append(rep.Cells, cell)

	// Bit flips: single-bit corruption anywhere in the stream must cut
	// the salvage at (or before) the corrupted segment.
	cell = Cell{Workload: name, Cores: cores, Class: FaultStreamCorrupt}
	for i := 0; i < cfg.BitFlips; i++ {
		pos, bit := m.pick(len(data)), m.pick(8)
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 1 << bit
		out, detail := checkBitFlip(prog, full, flipped, segOf(offs, pos), maxSteps)
		cell.count(out, fmt.Sprintf("bit %d of byte %d/%d flipped: %s", bit, pos, len(data), detail))
	}
	rep.Cells = append(rep.Cells, cell)

	// The same crashes against a flight-recorder window: the recorder ran
	// with a K-interval retention ring and dumped it; the dump is torn or
	// corrupted. The reference is the pristine window's own salvage — a
	// damaged dump must recover a replayable suffix of it, anchored at
	// the surviving base checkpoint.
	wcfg := mcfg
	wcfg.RetainCheckpoints = cfg.Window
	var wbuf bytes.Buffer
	if _, err := core.StreamRecord(prog, wcfg, &wbuf); err != nil {
		return fmt.Errorf("windowed stream recording failed: %w", err)
	}
	wdata := wbuf.Bytes()
	woffs := segment.Offsets(wdata)
	if len(woffs) < 2 || woffs[len(woffs)-1] != len(wdata) {
		return fmt.Errorf("pristine window scans to %d segments covering %d/%d bytes",
			len(woffs), woffs[len(woffs)-1], len(wdata))
	}
	wref, err := core.SalvageStream(wdata)
	if err != nil {
		return fmt.Errorf("pristine window does not salvage: %w", err)
	}
	refRes, err := core.ReplayBounded(prog, wref.Bundle, maxSteps)
	if err != nil {
		return fmt.Errorf("pristine window does not replay: %w", err)
	}

	cell = Cell{Workload: name, Cores: cores, Class: FaultWindowTorn}
	wcuts := append([]int(nil), woffs...)
	for i := 0; i < cfg.RandomCuts; i++ {
		wcuts = append(wcuts, 1+m.pick(len(wdata)-1))
	}
	for _, cut := range wcuts {
		out, detail := checkWindowCrash(prog, wref, refRes, wdata[:cut], cut == len(wdata), maxSteps)
		cell.count(out, fmt.Sprintf("window cut at byte %d/%d: %s", cut, len(wdata), detail))
	}
	rep.Cells = append(rep.Cells, cell)

	cell = Cell{Workload: name, Cores: cores, Class: FaultWindowCorrupt}
	// A windowed stream is only replayable from its base checkpoint;
	// corruption there (or in the manifest) legitimately loses the whole
	// recording, as long as it surfaces as a typed error.
	fatalSeg := 0
	if _, evicted := wref.WindowBase(); evicted {
		fatalSeg = 1
	}
	for i := 0; i < cfg.BitFlips; i++ {
		pos, bit := m.pick(len(wdata)), m.pick(8)
		flipped := append([]byte(nil), wdata...)
		flipped[pos] ^= 1 << bit
		out, detail := checkWindowBitFlip(prog, wref, refRes, flipped, segOf(woffs, pos), fatalSeg, maxSteps)
		cell.count(out, fmt.Sprintf("bit %d of window byte %d/%d flipped: %s", bit, pos, len(wdata), detail))
	}
	rep.Cells = append(rep.Cells, cell)
	return nil
}

// segOf returns the index of the segment containing byte pos, given the
// segment end offsets of the pristine stream.
func segOf(offs []int, pos int) int {
	for i, end := range offs {
		if pos < end {
			return i
		}
	}
	return len(offs)
}

// count tallies one classified injection into the cell.
func (c *Cell) count(out Outcome, detail string) {
	c.Injected++
	switch out {
	case OutcomeDecode:
		c.Decode++
	case OutcomePrefix:
		c.Prefix++
	case OutcomeWindow:
		c.Window++
	case OutcomeVerify:
		c.Verify++
	case OutcomeReplay:
		c.Replay++
	default:
		c.Silent++
		if len(c.SilentExamples) < 4 {
			c.SilentExamples = append(c.SilentExamples, detail)
		}
	}
}

// checkCrashPoint classifies one torn stream: it must salvage to a
// verified prefix of the original execution (OutcomePrefix; OutcomeVerify
// when the stream is actually whole), or fail with a typed decode error
// (OutcomeDecode). Anything else — untyped error, non-prefix data, a
// replay that strays off the recorded execution — is OutcomeSilent.
func checkCrashPoint(prog *isa.Program, full *core.Bundle, torn []byte, whole bool, maxSteps uint64) (Outcome, string) {
	sv, err := core.SalvageStream(torn)
	if err != nil {
		if errors.Is(err, chunk.ErrTruncated) || errors.Is(err, chunk.ErrCorrupt) {
			return OutcomeDecode, err.Error()
		}
		return OutcomeSilent, "untyped salvage error: " + err.Error()
	}
	if err := checkSalvagedPrefix(prog, full, sv, maxSteps); err != nil {
		return OutcomeSilent, err.Error()
	}
	if whole {
		if sv.Bundle.Partial {
			return OutcomeSilent, "whole stream salvaged as partial"
		}
		return OutcomeVerify, "whole stream verified"
	}
	return OutcomePrefix, fmt.Sprintf("verified prefix (%s)", sv.Report)
}

// checkBitFlip classifies one corrupted stream: salvage must cut at or
// before the corrupted segment (the CRC catches every single-bit error),
// and whatever survives must still be a verified prefix.
func checkBitFlip(prog *isa.Program, full *core.Bundle, flipped []byte, seg int, maxSteps uint64) (Outcome, string) {
	sv, err := core.SalvageStream(flipped)
	if err != nil {
		if seg > 0 {
			return OutcomeSilent, fmt.Sprintf("flip in segment %d killed the whole salvage: %v", seg, err)
		}
		if errors.Is(err, chunk.ErrTruncated) || errors.Is(err, chunk.ErrCorrupt) {
			return OutcomeDecode, err.Error()
		}
		return OutcomeSilent, "untyped salvage error: " + err.Error()
	}
	if sv.Report.SegmentsKept > seg {
		return OutcomeSilent, fmt.Sprintf("kept %d segments, corruption was in segment %d", sv.Report.SegmentsKept, seg)
	}
	if err := checkSalvagedPrefix(prog, full, sv, maxSteps); err != nil {
		return OutcomeSilent, err.Error()
	}
	return OutcomeDecode, fmt.Sprintf("corrupt segment %d discarded (%s)", seg, sv.Report)
}

// checkWindowCrash classifies one torn flight-recorder window dump: it
// must salvage to a replayable suffix of the pristine window anchored at
// the surviving base checkpoint (OutcomeWindow; OutcomeVerify when the
// dump is whole), or fail with a typed decode error — a cut that lands
// before the base checkpoint survives loses the recording by design, and
// must say so explicitly (OutcomeDecode).
func checkWindowCrash(prog *isa.Program, ref *core.Salvaged, refRes *replay.Result, torn []byte, whole bool, maxSteps uint64) (Outcome, string) {
	sv, err := core.SalvageStream(torn)
	if err != nil {
		if errors.Is(err, chunk.ErrTruncated) || errors.Is(err, chunk.ErrCorrupt) {
			return OutcomeDecode, err.Error()
		}
		return OutcomeSilent, "untyped salvage error: " + err.Error()
	}
	if err := checkWindowedSuffix(prog, ref, refRes, sv, maxSteps); err != nil {
		return OutcomeSilent, err.Error()
	}
	if whole {
		if sv.Bundle.Partial {
			return OutcomeSilent, "whole window dump salvaged as partial"
		}
		return OutcomeVerify, "whole window verified"
	}
	return OutcomeWindow, fmt.Sprintf("replayable window suffix (%s)", sv.Report)
}

// checkWindowBitFlip classifies one corrupted window dump: salvage must
// cut at or before the corrupted segment and still yield a replayable
// window suffix. Corruption in a segment at or before fatalSeg (the
// manifest, or the base checkpoint the window resumes from) may instead
// lose the whole recording with a typed error.
func checkWindowBitFlip(prog *isa.Program, ref *core.Salvaged, refRes *replay.Result, flipped []byte, seg, fatalSeg int, maxSteps uint64) (Outcome, string) {
	sv, err := core.SalvageStream(flipped)
	if err != nil {
		if seg > fatalSeg {
			return OutcomeSilent, fmt.Sprintf("flip in segment %d killed the whole salvage: %v", seg, err)
		}
		if errors.Is(err, chunk.ErrTruncated) || errors.Is(err, chunk.ErrCorrupt) {
			return OutcomeDecode, err.Error()
		}
		return OutcomeSilent, "untyped salvage error: " + err.Error()
	}
	if sv.Report.SegmentsKept > seg {
		return OutcomeSilent, fmt.Sprintf("kept %d segments, corruption was in segment %d", sv.Report.SegmentsKept, seg)
	}
	if err := checkWindowedSuffix(prog, ref, refRes, sv, maxSteps); err != nil {
		return OutcomeSilent, err.Error()
	}
	return OutcomeDecode, fmt.Sprintf("corrupt window segment %d discarded (%s)", seg, sv.Report)
}

// checkWindowedSuffix verifies the windowed crash contract for one
// salvaged dump against the pristine window: the salvage resumes from
// the same base checkpoint, every salvaged log is an entry-wise prefix
// of the window's, the bundle replays from the base within the step
// budget, and the replayed execution is a prefix of the pristine
// window's replay. Whole salvages must verify exactly.
func checkWindowedSuffix(prog *isa.Program, ref *core.Salvaged, refRes *replay.Result, sv *core.Salvaged, maxSteps uint64) error {
	b, rb := sv.Bundle, ref.Bundle
	svBase, svEvicted := sv.WindowBase()
	refBase, refEvicted := ref.WindowBase()
	if svEvicted != refEvicted || svBase != refBase {
		return fmt.Errorf("salvage resumes from base (%d, %v), pristine window from (%d, %v)",
			svBase, svEvicted, refBase, refEvicted)
	}
	if len(b.ChunkLogs) != len(rb.ChunkLogs) {
		return fmt.Errorf("salvaged %d chunk logs, window has %d", len(b.ChunkLogs), len(rb.ChunkLogs))
	}
	for t, l := range b.ChunkLogs {
		orig := rb.ChunkLogs[t]
		if l.Len() > orig.Len() {
			return fmt.Errorf("thread %d: salvaged %d entries, window has %d", t, l.Len(), orig.Len())
		}
		for i, e := range l.Entries {
			if e != orig.Entries[i] {
				return fmt.Errorf("thread %d entry %d: salvaged %v, window has %v", t, i, e, orig.Entries[i])
			}
		}
	}
	// Per-thread prefix, not positional: a torn epoch's horizon cut can
	// trim a different number of trailing records per thread.
	perThread := map[int]int{}
	for _, r := range b.InputLog.Records {
		origs := rb.InputLog.PerThread(r.Thread)
		i := perThread[r.Thread]
		if i >= len(origs) || r.String() != origs[i].String() {
			return fmt.Errorf("input record %v is not record %d of the window's thread-%d sequence", r, i, r.Thread)
		}
		perThread[r.Thread] = i + 1
	}
	rr, err := core.ReplayBounded(prog, b, maxSteps)
	if err != nil {
		return fmt.Errorf("salvaged window suffix does not replay: %w", err)
	}
	if !bytes.HasPrefix(refRes.Output, rr.Output) {
		return fmt.Errorf("replayed %d output bytes are not a prefix of the window's %d", len(rr.Output), len(refRes.Output))
	}
	for t, r := range rr.RetiredPerThread {
		if r > refRes.RetiredPerThread[t] {
			return fmt.Errorf("thread %d replayed %d instructions past the window's %d", t, r, refRes.RetiredPerThread[t])
		}
	}
	if !b.Partial {
		if err := core.Verify(b, rr); err != nil {
			return fmt.Errorf("whole window salvage failed verification: %w", err)
		}
	}
	return nil
}

// checkSalvagedPrefix verifies the crash-consistency contract for one
// salvaged recording against the pristine full recording: every salvaged
// log is an entry-wise prefix of the original, the salvaged bundle
// replays, and the replayed execution is a prefix of the recorded one
// (output bytes, retired counts). Whole salvages must verify exactly.
func checkSalvagedPrefix(prog *isa.Program, full *core.Bundle, sv *core.Salvaged, maxSteps uint64) error {
	b := sv.Bundle
	if len(b.ChunkLogs) != len(full.ChunkLogs) {
		return fmt.Errorf("salvaged %d chunk logs, recorded %d", len(b.ChunkLogs), len(full.ChunkLogs))
	}
	for t, l := range b.ChunkLogs {
		orig := full.ChunkLogs[t]
		if l.Len() > orig.Len() {
			return fmt.Errorf("thread %d: salvaged %d entries, recorded %d", t, l.Len(), orig.Len())
		}
		for i, e := range l.Entries {
			if e != orig.Entries[i] {
				return fmt.Errorf("thread %d entry %d: salvaged %v, recorded %v", t, i, e, orig.Entries[i])
			}
		}
	}
	perThread := map[int]int{}
	for _, r := range b.InputLog.Records {
		origs := full.InputLog.PerThread(r.Thread)
		i := perThread[r.Thread]
		if i >= len(origs) || r.String() != origs[i].String() {
			return fmt.Errorf("input record %v is not record %d of thread %d's recorded sequence", r, i, r.Thread)
		}
		perThread[r.Thread] = i + 1
	}

	rr, err := core.ReplayBounded(prog, b, maxSteps)
	if err != nil {
		return fmt.Errorf("salvaged prefix does not replay: %w", err)
	}
	if !bytes.HasPrefix(full.Output, rr.Output) {
		return fmt.Errorf("replayed %d output bytes are not a prefix of the recorded %d", len(rr.Output), len(full.Output))
	}
	for t, r := range rr.RetiredPerThread {
		if r > full.RetiredPerThread[t] {
			return fmt.Errorf("thread %d replayed %d instructions past the recorded %d", t, r, full.RetiredPerThread[t])
		}
	}
	if !b.Partial {
		if err := core.Verify(b, rr); err != nil {
			return fmt.Errorf("whole salvage failed verification: %w", err)
		}
	}
	return nil
}
