package capo

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/wire"
)

// Snapshot is the machine state at a flight-recorder checkpoint, taken
// at a global quiescent point after every open chunk was force-closed.
// Replay resumes from a snapshot, and an interval that ends at a
// checkpoint is validated against one. Readers never modify it.
type Snapshot struct {
	// Mem is the architectural memory image (caches overlaid); replay
	// copies it before executing.
	Mem *mem.Memory
	// Contexts, Exited, SigRegs and SigPC hold per-thread state,
	// indexed by thread ID: the architectural context, whether the
	// thread terminated (exit syscall or HALT), and its signal frame.
	Contexts []isa.Context
	Exited   []bool
	SigRegs  [][isa.NumRegs]uint64
	SigPC    []int
	// HandlerPC/HandlerOK carry the registered signal handler (its
	// registration record may predate a tail's input log).
	HandlerPC int
	HandlerOK bool
	// Output is everything written to fd 1 before the snapshot.
	Output []byte
}

// Checkpoint places a Snapshot in the logs. RetiredAt is the global
// retired-instruction count at the snapshot; ChunkPos[t] is thread t's
// chunk-log length and InputPos the input-log length, with one position
// per thread. Entries beyond the positions cover only post-checkpoint
// execution, so a recording's checkpoints partition its logs into
// independently replayable intervals.
type Checkpoint struct {
	Snapshot
	RetiredAt uint64
	ChunkPos  []int
	InputPos  int
}

// Check reports whether s is shaped for a recording of threads threads:
// a memory image and one entry per thread in every per-thread list.
func (s *Snapshot) Check(threads int) error {
	if s.Mem == nil || len(s.Contexts) != threads || len(s.Exited) != threads ||
		len(s.SigRegs) != threads || len(s.SigPC) != threads {
		return fmt.Errorf("capo: malformed checkpoint for %d threads", threads)
	}
	return nil
}

// maxPC bounds every decoded program counter. Programs are far shorter,
// and the bound keeps a PC a non-negative int on every platform, so a
// decoded value always re-encodes to the bytes it came from.
const maxPC = 1 << 31

// AppendContext encodes one architectural context: registers, PC,
// retired count, a flag byte (bit 0 halted, bit 1 REP in flight) and
// the REP iterations done. Every format that carries a context (bundle,
// stream, interval results) uses this one layout.
func AppendContext(a *wire.Appender, ctx isa.Context) {
	for _, r := range ctx.Regs {
		a.Uvarint(r)
	}
	a.Int(ctx.PC)
	a.Uvarint(ctx.Retired)
	var flags byte
	if ctx.Halted {
		flags |= 1
	}
	if ctx.RepActive {
		flags |= 2
	}
	a.Byte(flags)
	a.Uvarint(ctx.RepDone)
}

// ReadContext decodes what AppendContext wrote. It accepts only the
// canonical encoding: a flag byte above 3 or a PC of 2^31 or more is
// corruption under c's sentinel.
func ReadContext(c *wire.Cursor) (isa.Context, error) {
	var ctx isa.Context
	for i := range ctx.Regs {
		v, err := c.Uvarint()
		if err != nil {
			return ctx, err
		}
		ctx.Regs[i] = v
	}
	pc, err := ReadPC(c)
	if err != nil {
		return ctx, err
	}
	ctx.PC = pc
	if ctx.Retired, err = c.Uvarint(); err != nil {
		return ctx, err
	}
	flags, err := c.Byte()
	if err != nil {
		return ctx, err
	}
	if flags > 3 {
		return ctx, c.Corruptf("context flags %#x", flags)
	}
	ctx.Halted = flags&1 != 0
	ctx.RepActive = flags&2 != 0
	if ctx.RepDone, err = c.Uvarint(); err != nil {
		return ctx, err
	}
	return ctx, nil
}

// ReadPC decodes a program counter written with Appender.Int: contexts,
// signal frames and handler registrations all carry one.
func ReadPC(c *wire.Cursor) (int, error) {
	pc, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if pc >= maxPC {
		return 0, c.Corruptf("PC %d out of range", pc)
	}
	return int(pc), nil
}

// AppendImage encodes a checkpoint memory image as a length-prefixed
// blob of its bytes.
func AppendImage(a *wire.Appender, m *mem.Memory) {
	a.Uvarint(m.Size())
	a.Buf = m.AppendBytes(a.Buf, 0, m.Size())
}

// ReadImage decodes what AppendImage wrote, into m when m is a memory
// of the image's size and into a new memory otherwise. The memory is
// word-addressed, so an image that is not a whole number of words could
// only re-encode longer; it is corruption under c's sentinel.
func ReadImage(c *wire.Cursor, m *mem.Memory) (*mem.Memory, error) {
	img, err := c.View()
	if err != nil {
		return nil, err
	}
	if len(img)%mem.WordSize != 0 {
		return nil, c.Corruptf("checkpoint memory image of %d bytes is not a whole number of words", len(img))
	}
	if m == nil || m.Size() != uint64(len(img)) {
		m = mem.New(uint64(len(img)))
	}
	m.StoreBytes(0, img)
	return m, nil
}
