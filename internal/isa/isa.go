// Package isa defines the simulated instruction set executed by the
// QuickRec machine model, an assembler DSL for writing workloads, and the
// interpreter core.
//
// The ISA is a small RISC-style register machine with three deliberate
// x86-flavoured additions that the QuickRec paper identifies as the hard
// cases for record and replay:
//
//   - REP string instructions (REPMOVS/REPSTOS) that can be interrupted
//     mid-flight at a chunk boundary, requiring the log to carry an
//     iteration residue;
//   - atomic read-modify-write instructions (XCHG/CAS/FADD) whose read
//     and write must be indivisible with respect to coherence traffic;
//   - a SYSCALL trap into the (simulated) kernel, the boundary at which
//     the Capo3 software stack takes over.
//
// Code and data live in separate spaces: instructions are indexed by
// position in the program slice (a fixed, deterministic artifact), while
// data accesses go through a MemPort so the cache/coherence/recording
// models observe every load and store.
package isa

import "fmt"

// NumRegs is the number of general-purpose registers. R0 is hardwired to
// zero: reads return 0 and writes are discarded.
const NumRegs = 32

// Reg names a general-purpose register.
type Reg uint8

// Register aliases. R0 is the hardwired zero register. By convention the
// machine model passes the thread ID in R1, the thread count in R2, and a
// per-thread scratch/stack base in R29 at startup; RRet carries syscall
// numbers and results.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// RRet is the register carrying syscall numbers on entry and results on
// return (mirrors x86's RAX role).
const RRet = R10

// Op enumerates instruction opcodes.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota
	OpHalt
	OpLi   // rd = imm
	OpMov  // rd = rs1
	OpAdd  // rd = rs1 + rs2
	OpSub  // rd = rs1 - rs2
	OpMul  // rd = rs1 * rs2
	OpDiv  // rd = rs1 / rs2 (unsigned; x/0 = all-ones)
	OpRem  // rd = rs1 % rs2 (unsigned; x%0 = x)
	OpAnd  // rd = rs1 & rs2
	OpOr   // rd = rs1 | rs2
	OpXor  // rd = rs1 ^ rs2
	OpShl  // rd = rs1 << (rs2 & 63)
	OpShr  // rd = rs1 >> (rs2 & 63)
	OpSlt  // rd = signed(rs1) < signed(rs2) ? 1 : 0
	OpSltu // rd = rs1 < rs2 ? 1 : 0
	OpAddi // rd = rs1 + imm
	OpMuli // rd = rs1 * imm
	OpAndi // rd = rs1 & imm
	OpOri  // rd = rs1 | imm
	OpXori // rd = rs1 ^ imm
	OpShli // rd = rs1 << (imm & 63)
	OpShri // rd = rs1 >> (imm & 63)
	OpLd   // rd = mem[rs1 + imm]
	OpSt   // mem[rs1 + imm] = rs2
	OpLb   // rd = sign-extended byte at rs1 + imm (any alignment)
	OpLbu  // rd = zero-extended byte at rs1 + imm
	OpSb   // low byte of rs2 -> byte at rs1 + imm (atomic merge; see core)
	OpBeq  // if rs1 == rs2: pc = target
	OpBne  // if rs1 != rs2: pc = target
	OpBlt  // if signed(rs1) < signed(rs2): pc = target
	OpBge  // if signed(rs1) >= signed(rs2): pc = target
	OpBltu // if rs1 < rs2: pc = target
	OpBgeu // if rs1 >= rs2: pc = target
	OpJmp  // pc = target
	OpJal  // rd = pc + 1; pc = target
	OpJr   // pc = rs1
	// Atomic read-modify-write. The read and the write are indivisible:
	// the core acquires the line exclusively before either happens.
	OpXchg // rd = mem[rs1+imm]; mem[rs1+imm] = rs2
	OpCas  // rd = mem[rs1+imm]; if rd == rs2: mem[rs1+imm] = rs3
	OpFadd // rd = mem[rs1+imm]; mem[rs1+imm] = rd + rs2
	// REP string instructions: one architectural instruction executing
	// rs3 word-sized iterations; registers advance per iteration so the
	// instruction can be suspended and resumed at any iteration boundary.
	OpRepMovs // while rs3 > 0: mem[rs1] = mem[rs2]; rs1 += 8; rs2 += 8; rs3 -= 1
	OpRepStos // while rs3 > 0: mem[rs1] = rs2; rs1 += 8; rs3 -= 1
	OpSyscall // trap to kernel; RRet = sysno; args in R11..R14; result in RRet
	OpFence   // ordering fence (no-op under the simulator's SC memory model)

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpHalt: "halt", OpLi: "li", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpSlt: "slt", OpSltu: "sltu",
	OpAddi: "addi", OpMuli: "muli", OpAndi: "andi", OpOri: "ori",
	OpXori: "xori", OpShli: "shli", OpShri: "shri",
	OpLd: "ld", OpSt: "st", OpLb: "lb", OpLbu: "lbu", OpSb: "sb",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBltu: "bltu", OpBgeu: "bgeu",
	OpJmp: "jmp", OpJal: "jal", OpJr: "jr",
	OpXchg: "xchg", OpCas: "cas", OpFadd: "fadd",
	OpRepMovs: "repmovs", OpRepStos: "repstos",
	OpSyscall: "syscall", OpFence: "fence",
}

// String returns the mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsAtomic reports whether the opcode is an atomic read-modify-write.
func (op Op) IsAtomic() bool {
	switch op {
	case OpXchg, OpCas, OpFadd:
		return true
	}
	return false
}

// Instr is one decoded instruction. Target (for branches) is an
// instruction index; Imm is a 64-bit immediate or address offset.
type Instr struct {
	Op     Op
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Rs3    Reg
	Imm    int64
	Target int
}

// String renders the instruction in assembler-like form.
func (in Instr) String() string {
	r := func(x Reg) string { return fmt.Sprintf("r%d", x) }
	switch in.Op {
	case OpNop, OpHalt, OpSyscall, OpFence:
		return in.Op.String()
	case OpLi:
		return fmt.Sprintf("li %s, %d", r(in.Rd), in.Imm)
	case OpMov:
		return fmt.Sprintf("mov %s, %s", r(in.Rd), r(in.Rs1))
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSlt, OpSltu:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, r(in.Rd), r(in.Rs1), r(in.Rs2))
	case OpAddi, OpMuli, OpAndi, OpOri, OpXori, OpShli, OpShri:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, r(in.Rd), r(in.Rs1), in.Imm)
	case OpLd:
		return fmt.Sprintf("ld %s, [%s%+d]", r(in.Rd), r(in.Rs1), in.Imm)
	case OpLb, OpLbu:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, r(in.Rd), r(in.Rs1), in.Imm)
	case OpSt:
		return fmt.Sprintf("st [%s%+d], %s", r(in.Rs1), in.Imm, r(in.Rs2))
	case OpSb:
		return fmt.Sprintf("sb [%s%+d], %s", r(in.Rs1), in.Imm, r(in.Rs2))
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, r(in.Rs1), r(in.Rs2), in.Target)
	case OpJmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case OpJal:
		return fmt.Sprintf("jal %s, @%d", r(in.Rd), in.Target)
	case OpJr:
		return fmt.Sprintf("jr %s", r(in.Rs1))
	case OpXchg:
		return fmt.Sprintf("xchg %s, [%s%+d], %s", r(in.Rd), r(in.Rs1), in.Imm, r(in.Rs2))
	case OpCas:
		return fmt.Sprintf("cas %s, [%s%+d], %s, %s", r(in.Rd), r(in.Rs1), in.Imm, r(in.Rs2), r(in.Rs3))
	case OpFadd:
		return fmt.Sprintf("fadd %s, [%s%+d], %s", r(in.Rd), r(in.Rs1), in.Imm, r(in.Rs2))
	case OpRepMovs:
		return fmt.Sprintf("repmovs [%s], [%s], %s", r(in.Rs1), r(in.Rs2), r(in.Rs3))
	case OpRepStos:
		return fmt.Sprintf("repstos [%s], %s, %s", r(in.Rs1), r(in.Rs2), r(in.Rs3))
	default:
		return in.Op.String()
	}
}
