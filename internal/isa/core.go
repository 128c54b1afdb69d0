package isa

import (
	"fmt"

	"repro/internal/mem"
)

// MemPort is the core's window onto data memory. The machine model wires
// each core's port through its private cache so that every access
// generates coherence traffic visible to the recording hardware.
type MemPort interface {
	// Load reads the aligned 64-bit word at addr.
	Load(addr uint64) uint64
	// Store writes the aligned 64-bit word at addr.
	Store(addr uint64, val uint64)
	// RMW atomically applies op to the word at addr and returns the old
	// value. The implementation must acquire the line exclusively before
	// reading so the read-modify-write is indivisible.
	RMW(addr uint64, op RMWOp) uint64
}

// RMWOp is the update a read-modify-write applies to a word: the opcode
// that issued it plus its operands. It is a plain value rather than a
// closure so handing it to a MemPort allocates nothing.
//
//   - OpSb: A is the byte value, B the byte offset within the word (0-7).
//   - OpXchg: A is the new value.
//   - OpCas: A is the expected value, B the replacement.
//   - OpFadd: A is the addend.
type RMWOp struct {
	Op   Op
	A, B uint64
}

// Apply returns the word that replaces old.
func (op RMWOp) Apply(old uint64) uint64 {
	switch op.Op {
	case OpSb:
		shift := (op.B & 7) * 8
		return (old &^ (uint64(0xff) << shift)) | (op.A&0xff)<<shift
	case OpXchg:
		return op.A
	case OpCas:
		if old == op.A {
			return op.B
		}
		return old
	case OpFadd:
		return old + op.A
	}
	panic(fmt.Sprintf("isa: %v is not a read-modify-write", op.Op))
}

// StepKind classifies the outcome of one Step.
type StepKind uint8

// Step outcomes.
const (
	// StepRetired: one whole instruction retired.
	StepRetired StepKind = iota
	// StepRepTick: one iteration of an in-flight REP instruction
	// completed; the instruction has not retired yet.
	StepRepTick
	// StepRepRetired: the final iteration of a REP instruction completed
	// and the instruction retired.
	StepRepRetired
	// StepSyscall: the core trapped into the kernel. The core is stalled
	// until CompleteSyscall is called; the syscall instruction retires
	// then.
	StepSyscall
	// StepHalted: the core executed HALT (or was already halted).
	StepHalted
)

// Core is a single in-order execution context. It holds the architectural
// register state of whatever thread is currently scheduled on it; the
// kernel model swaps register files on context switches.
type Core struct {
	// ID is the core's index in the machine.
	ID int

	regs    [NumRegs]uint64
	pc      int
	halted  bool
	retired uint64

	// In-flight REP instruction state. repActive is true between the
	// first and last iteration of a REP instruction; repDone counts
	// completed iterations.
	repActive bool
	repDone   uint64

	// Pending syscall: set when Step hits OpSyscall, cleared by
	// CompleteSyscall.
	inSyscall bool

	prog *Program
	port MemPort
}

// NewCore returns a core executing prog through port.
func NewCore(id int, prog *Program, port MemPort) *Core {
	return &Core{ID: id, prog: prog, port: port}
}

// Reg returns the value of r (R0 reads as zero).
func (c *Core) Reg(r Reg) uint64 {
	if r == R0 {
		return 0
	}
	return c.regs[r]
}

// SetReg sets r to v (writes to R0 are discarded).
func (c *Core) SetReg(r Reg, v uint64) {
	if r != R0 {
		c.regs[r] = v
	}
}

// PC returns the current instruction index.
func (c *Core) PC() int { return c.pc }

// SetPC sets the instruction index (used for signal delivery).
func (c *Core) SetPC(pc int) { c.pc = pc }

// Halted reports whether the core has executed HALT.
func (c *Core) Halted() bool { return c.halted }

// Retired returns the number of instructions retired since construction
// (or the last ResetRetired).
func (c *Core) Retired() uint64 { return c.retired }

// RepInFlight reports whether a REP instruction is partially executed,
// and how many iterations have completed. The recording hardware stores
// this residue in the chunk log so replay can suspend the instruction at
// the same point.
func (c *Core) RepInFlight() (active bool, done uint64) { return c.repActive, c.repDone }

// InSyscall reports whether the core is stalled at a syscall trap.
func (c *Core) InSyscall() bool { return c.inSyscall }

// SyscallArgs returns the syscall number and arguments (RRet, R11..R14).
func (c *Core) SyscallArgs() (sysno, a1, a2, a3, a4 uint64) {
	return c.Reg(RRet), c.Reg(R11), c.Reg(R12), c.Reg(R13), c.Reg(R14)
}

// CompleteSyscall supplies the kernel's result, retires the syscall
// instruction, and resumes the core.
func (c *Core) CompleteSyscall(ret uint64) {
	if !c.inSyscall {
		panic("isa: CompleteSyscall with no syscall pending")
	}
	c.SetReg(RRet, ret)
	c.inSyscall = false
	c.pc++
	c.retired++
}

// AbortSyscall resumes the core without retiring the syscall instruction,
// so it re-executes (used for restartable futex waits interrupted by
// signals).
func (c *Core) AbortSyscall() {
	if !c.inSyscall {
		panic("isa: AbortSyscall with no syscall pending")
	}
	c.inSyscall = false
}

// ClearRepState abandons in-flight REP bookkeeping. Used on signal
// delivery: the partially executed REP instruction resumes later as a
// fresh instruction with the remaining count in its registers, so the
// residue counter restarts from zero. Record and replay must both clear
// at the same delivery point for residues to stay in sync.
func (c *Core) ClearRepState() {
	c.repActive = false
	c.repDone = 0
}

// Context is a saved thread context, enough to migrate a thread across
// cores or suspend it in the kernel.
type Context struct {
	Regs      [NumRegs]uint64
	PC        int
	Halted    bool
	Retired   uint64
	RepActive bool
	RepDone   uint64
}

// SaveContext captures the architectural state of the running thread.
// It must not be called mid-syscall.
func (c *Core) SaveContext() Context {
	if c.inSyscall {
		panic("isa: SaveContext during syscall")
	}
	return Context{
		Regs: c.regs, PC: c.pc, Halted: c.halted, Retired: c.retired,
		RepActive: c.repActive, RepDone: c.repDone,
	}
}

// RestoreContext installs a previously saved thread context.
func (c *Core) RestoreContext(ctx Context) {
	c.regs = ctx.Regs
	c.pc = ctx.PC
	c.halted = ctx.Halted
	c.retired = ctx.Retired
	c.repActive = ctx.RepActive
	c.repDone = ctx.RepDone
	c.inSyscall = false
}

// fetch returns the instruction at the PC in place, without copying it.
// The fault's message is built out of line in pcFault, so fetch inlines
// into Step, and the panic in place tells the compiler that the index
// below is in range.
func (c *Core) fetch() *Instr {
	if uint(c.pc) >= uint(len(c.prog.Code)) {
		panic(c.pcFault())
	}
	return &c.prog.Code[c.pc]
}

// pcFault returns the fault of a fetch from a PC outside the program.
//
//go:noinline
func (c *Core) pcFault() error {
	return mem.Faultf("isa: core %d PC %d out of range (program %s, %d instrs)",
		c.ID, c.pc, c.prog.Name, len(c.prog.Code))
}

// aligned returns addr, the address of a word access by op, faulting
// unless it is word-aligned. Word operands (ld, st, the atomics and the
// REP string instructions) must be aligned in record and replay alike;
// byte accesses take any address.
func (c *Core) aligned(op Op, addr uint64) uint64 {
	if addr%mem.WordSize != 0 {
		panic(c.alignFault(op, addr))
	}
	return addr
}

// alignFault returns the fault of a word access at an unaligned address.
//
//go:noinline
func (c *Core) alignFault(op Op, addr uint64) error {
	return mem.Faultf("isa: core %d: unaligned %v at %#x (PC %d)", c.ID, op, addr, c.pc)
}

// Step executes one unit of work: one whole instruction, or one iteration
// of a REP instruction. It returns what happened so the machine model can
// account cycles and the recorder can count retires.
func (c *Core) Step() StepKind {
	if c.halted {
		return StepHalted
	}
	if c.inSyscall {
		return StepSyscall
	}
	in := c.fetch()

	switch in.Op {
	case OpNop, OpFence:
		// fall through to retire
	case OpHalt:
		c.halted = true
		c.retired++
		return StepHalted
	case OpLi:
		c.SetReg(in.Rd, uint64(in.Imm))
	case OpMov:
		c.SetReg(in.Rd, c.Reg(in.Rs1))
	case OpAdd:
		c.SetReg(in.Rd, c.Reg(in.Rs1)+c.Reg(in.Rs2))
	case OpSub:
		c.SetReg(in.Rd, c.Reg(in.Rs1)-c.Reg(in.Rs2))
	case OpMul:
		c.SetReg(in.Rd, c.Reg(in.Rs1)*c.Reg(in.Rs2))
	case OpDiv:
		d := c.Reg(in.Rs2)
		if d == 0 {
			c.SetReg(in.Rd, ^uint64(0))
		} else {
			c.SetReg(in.Rd, c.Reg(in.Rs1)/d)
		}
	case OpRem:
		d := c.Reg(in.Rs2)
		if d == 0 {
			c.SetReg(in.Rd, c.Reg(in.Rs1))
		} else {
			c.SetReg(in.Rd, c.Reg(in.Rs1)%d)
		}
	case OpAnd:
		c.SetReg(in.Rd, c.Reg(in.Rs1)&c.Reg(in.Rs2))
	case OpOr:
		c.SetReg(in.Rd, c.Reg(in.Rs1)|c.Reg(in.Rs2))
	case OpXor:
		c.SetReg(in.Rd, c.Reg(in.Rs1)^c.Reg(in.Rs2))
	case OpShl:
		c.SetReg(in.Rd, c.Reg(in.Rs1)<<(c.Reg(in.Rs2)&63))
	case OpShr:
		c.SetReg(in.Rd, c.Reg(in.Rs1)>>(c.Reg(in.Rs2)&63))
	case OpSlt:
		c.SetReg(in.Rd, boolTo64(int64(c.Reg(in.Rs1)) < int64(c.Reg(in.Rs2))))
	case OpSltu:
		c.SetReg(in.Rd, boolTo64(c.Reg(in.Rs1) < c.Reg(in.Rs2)))
	case OpAddi:
		c.SetReg(in.Rd, c.Reg(in.Rs1)+uint64(in.Imm))
	case OpMuli:
		c.SetReg(in.Rd, c.Reg(in.Rs1)*uint64(in.Imm))
	case OpAndi:
		c.SetReg(in.Rd, c.Reg(in.Rs1)&uint64(in.Imm))
	case OpOri:
		c.SetReg(in.Rd, c.Reg(in.Rs1)|uint64(in.Imm))
	case OpXori:
		c.SetReg(in.Rd, c.Reg(in.Rs1)^uint64(in.Imm))
	case OpShli:
		c.SetReg(in.Rd, c.Reg(in.Rs1)<<(uint64(in.Imm)&63))
	case OpShri:
		c.SetReg(in.Rd, c.Reg(in.Rs1)>>(uint64(in.Imm)&63))
	case OpLd:
		addr := c.aligned(in.Op, c.Reg(in.Rs1)+uint64(in.Imm))
		c.SetReg(in.Rd, c.port.Load(addr))
	case OpSt:
		addr := c.aligned(in.Op, c.Reg(in.Rs1)+uint64(in.Imm))
		c.port.Store(addr, c.Reg(in.Rs2))
	case OpLb, OpLbu:
		addr := c.Reg(in.Rs1) + uint64(in.Imm)
		w := c.port.Load(addr &^ 7)
		v := (w >> ((addr & 7) * 8)) & 0xff
		if in.Op == OpLb && v&0x80 != 0 {
			v |= ^uint64(0xff)
		}
		c.SetReg(in.Rd, v)
	case OpSb:
		// Byte stores merge into the containing word via an atomic
		// read-modify-write: the model's equivalent of hardware byte
		// enables, so concurrent stores to sibling bytes never lose each
		// other.
		addr := c.Reg(in.Rs1) + uint64(in.Imm)
		c.port.RMW(addr&^7, RMWOp{Op: OpSb, A: c.Reg(in.Rs2), B: addr & 7})
	case OpBeq:
		return c.condBranch(in, c.Reg(in.Rs1) == c.Reg(in.Rs2))
	case OpBne:
		return c.condBranch(in, c.Reg(in.Rs1) != c.Reg(in.Rs2))
	case OpBlt:
		return c.condBranch(in, int64(c.Reg(in.Rs1)) < int64(c.Reg(in.Rs2)))
	case OpBge:
		return c.condBranch(in, int64(c.Reg(in.Rs1)) >= int64(c.Reg(in.Rs2)))
	case OpBltu:
		return c.condBranch(in, c.Reg(in.Rs1) < c.Reg(in.Rs2))
	case OpBgeu:
		return c.condBranch(in, c.Reg(in.Rs1) >= c.Reg(in.Rs2))
	case OpJmp:
		c.pc = in.Target
		c.retired++
		return StepRetired
	case OpJal:
		c.SetReg(in.Rd, uint64(c.pc+1))
		c.pc = in.Target
		c.retired++
		return StepRetired
	case OpJr:
		c.pc = int(c.Reg(in.Rs1))
		c.retired++
		return StepRetired
	case OpXchg:
		addr := c.aligned(in.Op, c.Reg(in.Rs1)+uint64(in.Imm))
		c.SetReg(in.Rd, c.port.RMW(addr, RMWOp{Op: OpXchg, A: c.Reg(in.Rs2)}))
	case OpCas:
		addr := c.aligned(in.Op, c.Reg(in.Rs1)+uint64(in.Imm))
		c.SetReg(in.Rd, c.port.RMW(addr, RMWOp{Op: OpCas, A: c.Reg(in.Rs2), B: c.Reg(in.Rs3)}))
	case OpFadd:
		addr := c.aligned(in.Op, c.Reg(in.Rs1)+uint64(in.Imm))
		c.SetReg(in.Rd, c.port.RMW(addr, RMWOp{Op: OpFadd, A: c.Reg(in.Rs2)}))
	case OpRepMovs, OpRepStos:
		return c.stepRep(in)
	case OpSyscall:
		c.inSyscall = true
		return StepSyscall
	default:
		panic(mem.Faultf("isa: core %d: unknown opcode %v at PC %d", c.ID, in.Op, c.pc))
	}
	c.pc++
	c.retired++
	return StepRetired
}

func (c *Core) condBranch(in *Instr, taken bool) StepKind {
	if taken {
		c.pc = in.Target
	} else {
		c.pc++
	}
	c.retired++
	return StepRetired
}

// stepRep executes one iteration of a REP instruction. The iteration
// count lives in Rs3 and the pointers in Rs1/Rs2 advance architecturally,
// so the instruction can be suspended between any two iterations (for a
// chunk boundary, context switch or signal) and resumed later.
func (c *Core) stepRep(in *Instr) StepKind {
	cnt := c.Reg(in.Rs3)
	if cnt == 0 {
		// Degenerate REP with zero count retires immediately.
		c.repActive = false
		c.repDone = 0
		c.pc++
		c.retired++
		return StepRepRetired
	}
	if !c.repActive {
		c.repActive = true
		c.repDone = 0
	}
	dst := c.aligned(in.Op, c.Reg(in.Rs1))
	switch in.Op {
	case OpRepMovs:
		src := c.aligned(in.Op, c.Reg(in.Rs2))
		c.port.Store(dst, c.port.Load(src))
		c.SetReg(in.Rs1, dst+8)
		c.SetReg(in.Rs2, src+8)
	case OpRepStos:
		c.port.Store(dst, c.Reg(in.Rs2))
		c.SetReg(in.Rs1, dst+8)
	}
	cnt--
	c.SetReg(in.Rs3, cnt)
	c.repDone++
	if cnt == 0 {
		c.repActive = false
		c.repDone = 0
		c.pc++
		c.retired++
		return StepRepRetired
	}
	return StepRepTick
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
