package segment

import (
	"fmt"

	"repro/internal/capo"
	"repro/internal/isa"
	"repro/internal/wire"
)

// Manifest is the stream's opening segment: everything a reader needs to
// interpret the rest of the stream and rebuild a recording's metadata.
type Manifest struct {
	// ProgramName names the recorded program.
	ProgramName string
	// Threads is the recorded thread count.
	Threads int
	// StackWordsPerThread reproduces the recorder's address-space layout.
	StackWordsPerThread uint64
	// CountRepIterations records the hardware's counting convention.
	CountRepIterations bool
	// EncodingID selects the chunk-entry encoding for chunk batches.
	EncodingID byte
	// FlushEveryChunks documents the flush cadence the stream was written
	// with (informational).
	FlushEveryChunks uint64
}

const manifestVersion = 1

// flagCountReps is the one manifest flag bit. Bits 2 (a retention
// window) and 4 (a window's base checkpoint) belonged to the retired
// flight-recorder window form; a manifest setting either is corrupt.
const flagCountReps byte = 1

func appendManifest(a *wire.Appender, m Manifest) {
	a.Byte(manifestVersion)
	var flags byte
	if m.CountRepIterations {
		flags |= flagCountReps
	}
	a.Byte(flags)
	a.Byte(m.EncodingID)
	a.Int(m.Threads)
	a.Uvarint(m.StackWordsPerThread)
	a.Uvarint(m.FlushEveryChunks)
	a.String(m.ProgramName)
}

func decodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if len(data) < 3 {
		return m, fmt.Errorf("%w: short manifest", ErrTruncated)
	}
	if data[0] != manifestVersion {
		return m, fmt.Errorf("%w: manifest version %d", ErrCorrupt, data[0])
	}
	flags := data[1]
	if flags > flagCountReps {
		return m, fmt.Errorf("%w: manifest flags %#x", ErrCorrupt, flags)
	}
	m.CountRepIterations = flags == flagCountReps
	m.EncodingID = data[2]
	rd := newReader(data)
	rd.Skip(3)
	threads, err := rd.Uvarint()
	if err != nil {
		return m, err
	}
	if threads == 0 || threads > 1<<16 {
		return m, fmt.Errorf("%w: implausible thread count %d", ErrCorrupt, threads)
	}
	m.Threads = int(threads)
	if m.StackWordsPerThread, err = rd.Uvarint(); err != nil {
		return m, err
	}
	if m.FlushEveryChunks, err = rd.Uvarint(); err != nil {
		return m, err
	}
	name, err := rd.View()
	if err != nil {
		return m, err
	}
	m.ProgramName = string(name)
	return m, rd.Done()
}

// Commit opens a flush epoch. It is written *before* the epoch's data
// segments and declares, per thread: the recorder clock at the flush
// point (Watermark — every already-emitted item of that thread has a
// strictly smaller timestamp, every later item a greater-or-equal one),
// whether the thread has exited, and how many chunk entries / input
// records the epoch's batches will carry. A salvage scanner uses these
// to compute per-thread completeness for a torn trailing epoch.
type Commit struct {
	Epoch      uint64
	Watermark  []uint64
	Exited     []bool
	ChunkCount []int
	InputCount []int
}

func appendCommit(a *wire.Appender, c Commit) {
	a.Uvarint(c.Epoch)
	for t := range c.Watermark {
		a.Uvarint(c.Watermark[t])
		var flags byte
		if c.Exited[t] {
			flags |= 1
		}
		a.Byte(flags)
		a.Int(c.ChunkCount[t])
		a.Int(c.InputCount[t])
	}
}

func decodeCommit(data []byte, threads int) (Commit, error) {
	c := Commit{
		Watermark:  make([]uint64, threads),
		Exited:     make([]bool, threads),
		ChunkCount: make([]int, threads),
		InputCount: make([]int, threads),
	}
	rd := newReader(data)
	var err error
	if c.Epoch, err = rd.Uvarint(); err != nil {
		return c, err
	}
	for t := 0; t < threads; t++ {
		if c.Watermark[t], err = rd.Uvarint(); err != nil {
			return c, err
		}
		flags, err := rd.Byte()
		if err != nil {
			return c, err
		}
		if flags > 1 {
			return c, fmt.Errorf("%w: commit flags %#x", ErrCorrupt, flags)
		}
		c.Exited[t] = flags&1 != 0
		n, err := rd.Uvarint()
		if err != nil {
			return c, err
		}
		if n > maxPayload {
			return c, fmt.Errorf("%w: implausible chunk count %d", ErrCorrupt, n)
		}
		c.ChunkCount[t] = int(n)
		if n, err = rd.Uvarint(); err != nil {
			return c, err
		}
		if n > maxPayload {
			return c, fmt.Errorf("%w: implausible input count %d", ErrCorrupt, n)
		}
		c.InputCount[t] = int(n)
	}
	if err := rd.Done(); err != nil {
		return c, err
	}
	return c, nil
}

// appendCheckpoint encodes a checkpoint segment's payload. Its layout
// (positions interleaved with the per-thread state) is the stream's
// own; the bundle carries the same checkpoint in another layout.
func appendCheckpoint(a *wire.Appender, cp *capo.Checkpoint) {
	a.Uvarint(cp.RetiredAt)
	capo.AppendImage(a, cp.Mem)
	for t := range cp.Contexts {
		capo.AppendContext(a, cp.Contexts[t])
		a.Bool(cp.Exited[t])
		for _, r := range cp.SigRegs[t] {
			a.Uvarint(r)
		}
		a.Int(cp.SigPC[t])
		a.Int(cp.ChunkPos[t])
	}
	a.Int(cp.InputPos)
	a.Int(cp.HandlerPC)
	a.Bool(cp.HandlerOK)
	a.Blob(cp.Output)
}

func decodeCheckpoint(data []byte, threads int) (*capo.Checkpoint, error) {
	cp := &capo.Checkpoint{}
	rd := newReader(data)
	var err error
	if cp.RetiredAt, err = rd.Uvarint(); err != nil {
		return nil, err
	}
	if cp.Mem, err = capo.ReadImage(&rd.Cursor, nil); err != nil {
		return nil, err
	}
	for t := 0; t < threads; t++ {
		ctx, err := capo.ReadContext(&rd.Cursor)
		if err != nil {
			return nil, err
		}
		cp.Contexts = append(cp.Contexts, ctx)
		exited, err := rd.Bool()
		if err != nil {
			return nil, err
		}
		cp.Exited = append(cp.Exited, exited)
		var regs [isa.NumRegs]uint64
		for i := range regs {
			if regs[i], err = rd.Uvarint(); err != nil {
				return nil, err
			}
		}
		cp.SigRegs = append(cp.SigRegs, regs)
		pc, err := capo.ReadPC(&rd.Cursor)
		if err != nil {
			return nil, err
		}
		cp.SigPC = append(cp.SigPC, pc)
		pos, err := rd.Uvarint()
		if err != nil {
			return nil, err
		}
		if pos > maxPayload {
			return nil, fmt.Errorf("%w: implausible checkpoint chunk position %d", ErrCorrupt, pos)
		}
		cp.ChunkPos = append(cp.ChunkPos, int(pos))
	}
	pos, err := rd.Uvarint()
	if err != nil {
		return nil, err
	}
	if pos > maxPayload {
		return nil, fmt.Errorf("%w: implausible checkpoint input position %d", ErrCorrupt, pos)
	}
	cp.InputPos = int(pos)
	if cp.HandlerPC, err = capo.ReadPC(&rd.Cursor); err != nil {
		return nil, err
	}
	if cp.HandlerOK, err = rd.Bool(); err != nil {
		return nil, err
	}
	if cp.Output, err = rd.Blob(); err != nil {
		return nil, err
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return cp, nil
}

// FinalPayload is the reference final state, written as the stream's
// last segment. Its presence marks the stream complete.
type FinalPayload struct {
	MemChecksum      uint64
	Output           []byte
	FinalContexts    []isa.Context
	RetiredPerThread []uint64
}

func appendFinalPayload(a *wire.Appender, f *FinalPayload) {
	a.Uvarint(f.MemChecksum)
	a.Blob(f.Output)
	for t := range f.FinalContexts {
		capo.AppendContext(a, f.FinalContexts[t])
		a.Uvarint(f.RetiredPerThread[t])
	}
}

func decodeFinalPayload(data []byte, threads int) (*FinalPayload, error) {
	f := &FinalPayload{}
	rd := newReader(data)
	var err error
	if f.MemChecksum, err = rd.Uvarint(); err != nil {
		return nil, err
	}
	if f.Output, err = rd.Blob(); err != nil {
		return nil, err
	}
	for t := 0; t < threads; t++ {
		ctx, err := capo.ReadContext(&rd.Cursor)
		if err != nil {
			return nil, err
		}
		f.FinalContexts = append(f.FinalContexts, ctx)
		r, err := rd.Uvarint()
		if err != nil {
			return nil, err
		}
		f.RetiredPerThread = append(f.RetiredPerThread, r)
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// reader is a payload cursor carrying segment's flavored sentinels; all
// failures wrap the shared wire sentinels through them, so salvage can
// classify damage with errors.Is.
type reader struct {
	wire.Cursor
}

func newReader(data []byte) *reader {
	return &reader{wire.CursorWith(data, ErrTruncated, ErrCorrupt)}
}
