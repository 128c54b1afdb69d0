package isa

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// flatPort is a MemPort directly backed by memory, with no cache model.
type flatPort struct{ m *mem.Memory }

func (p flatPort) Load(addr uint64) uint64       { return p.m.Load(addr) }
func (p flatPort) Store(addr uint64, val uint64) { p.m.Store(addr, val) }
func (p flatPort) RMW(addr uint64, op RMWOp) uint64 {
	old := p.m.Load(addr)
	p.m.Store(addr, op.Apply(old))
	return old
}

func runProgram(t *testing.T, b *Builder, memBytes uint64, maxSteps int) (*Core, *mem.Memory) {
	t.Helper()
	prog := b.Build(memBytes, 1, nil)
	m := mem.New(memBytes)
	c := NewCore(0, prog, flatPort{m})
	for i := 0; i < maxSteps; i++ {
		switch c.Step() {
		case StepHalted:
			return c, m
		case StepSyscall:
			t.Fatal("unexpected syscall")
		}
	}
	t.Fatalf("program %s did not halt in %d steps", prog.Name, maxSteps)
	return nil, nil
}

func TestALUBasics(t *testing.T) {
	b := NewBuilder("alu")
	b.Li(R1, 10)
	b.Li(R2, 3)
	b.Add(R3, R1, R2)  // 13
	b.Sub(R4, R1, R2)  // 7
	b.Mul(R5, R1, R2)  // 30
	b.Div(R6, R1, R2)  // 3
	b.Rem(R7, R1, R2)  // 1
	b.And(R8, R1, R2)  // 2
	b.Or(R9, R1, R2)   // 11
	b.Xor(R11, R1, R2) // 9
	b.Shl(R12, R1, R2) // 80
	b.Shr(R13, R1, R2) // 1
	b.Halt()
	c, _ := runProgram(t, b, 64, 100)
	want := map[Reg]uint64{R3: 13, R4: 7, R5: 30, R6: 3, R7: 1, R8: 2, R9: 11, R11: 9, R12: 80, R13: 1}
	for r, w := range want {
		if got := c.Reg(r); got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
}

func TestDivRemByZero(t *testing.T) {
	b := NewBuilder("divzero")
	b.Li(R1, 42)
	b.Div(R2, R1, R0)
	b.Rem(R3, R1, R0)
	b.Halt()
	c, _ := runProgram(t, b, 64, 10)
	if got := c.Reg(R2); got != ^uint64(0) {
		t.Errorf("div by zero = %#x, want all-ones", got)
	}
	if got := c.Reg(R3); got != 42 {
		t.Errorf("rem by zero = %d, want 42", got)
	}
}

func TestSignedComparisons(t *testing.T) {
	b := NewBuilder("signed")
	b.Li(R1, -5)
	b.Li(R2, 3)
	b.Slt(R3, R1, R2)  // -5 < 3 signed: 1
	b.Sltu(R4, R1, R2) // huge unsigned < 3: 0
	b.Halt()
	c, _ := runProgram(t, b, 64, 10)
	if c.Reg(R3) != 1 {
		t.Errorf("slt = %d, want 1", c.Reg(R3))
	}
	if c.Reg(R4) != 0 {
		t.Errorf("sltu = %d, want 0", c.Reg(R4))
	}
}

func TestR0Hardwired(t *testing.T) {
	b := NewBuilder("r0")
	b.Li(R0, 99)
	b.Addi(R0, R0, 5)
	b.Mov(R1, R0)
	b.Halt()
	c, _ := runProgram(t, b, 64, 10)
	if c.Reg(R0) != 0 || c.Reg(R1) != 0 {
		t.Errorf("R0 = %d, copy = %d; want 0, 0", c.Reg(R0), c.Reg(R1))
	}
}

func TestLoadStore(t *testing.T) {
	b := NewBuilder("ldst")
	b.Li(R1, 64) // base address
	b.Li(R2, 777)
	b.St(R1, 8, R2)
	b.Ld(R3, R1, 8)
	b.Halt()
	c, m := runProgram(t, b, 256, 10)
	if c.Reg(R3) != 777 {
		t.Errorf("loaded %d, want 777", c.Reg(R3))
	}
	if m.Load(72) != 777 {
		t.Errorf("mem[72] = %d, want 777", m.Load(72))
	}
}

func TestBranchLoop(t *testing.T) {
	b := NewBuilder("loop")
	b.Li(R1, 0)
	b.Li(R2, 10)
	b.Label("top")
	b.Addi(R1, R1, 1)
	b.Bne(R1, R2, "top")
	b.Halt()
	c, _ := runProgram(t, b, 64, 100)
	if c.Reg(R1) != 10 {
		t.Errorf("counter = %d, want 10", c.Reg(R1))
	}
	// 2 setup + 10 iterations * 2 + 1 halt
	if got := c.Retired(); got != 23 {
		t.Errorf("retired = %d, want 23", got)
	}
}

func TestAllBranchKinds(t *testing.T) {
	// Each branch that should be taken jumps forward over a poison store.
	b := NewBuilder("branches")
	b.Li(R1, 5)
	b.Li(R2, 5)
	b.Li(R3, -1) // signed negative, huge unsigned
	b.Li(R4, 0)  // poison accumulator

	b.Beq(R1, R2, "t1")
	b.Addi(R4, R4, 1)
	b.Label("t1")
	b.Bne(R1, R3, "t2")
	b.Addi(R4, R4, 1)
	b.Label("t2")
	b.Blt(R3, R1, "t3") // -1 < 5 signed
	b.Addi(R4, R4, 1)
	b.Label("t3")
	b.Bge(R1, R2, "t4") // 5 >= 5
	b.Addi(R4, R4, 1)
	b.Label("t4")
	b.Bltu(R1, R3, "t5") // 5 < 0xffff.. unsigned
	b.Addi(R4, R4, 1)
	b.Label("t5")
	b.Bgeu(R3, R1, "t6") // 0xffff.. >= 5 unsigned
	b.Addi(R4, R4, 1)
	b.Label("t6")
	b.Halt()
	c, _ := runProgram(t, b, 64, 100)
	if c.Reg(R4) != 0 {
		t.Errorf("%d branches not taken that should have been", c.Reg(R4))
	}
}

func TestJalJr(t *testing.T) {
	b := NewBuilder("call")
	b.Jal(R31, "fn")
	b.Li(R2, 1) // executed after return
	b.Halt()
	b.Label("fn")
	b.Li(R1, 42)
	b.Jr(R31)
	c, _ := runProgram(t, b, 64, 20)
	if c.Reg(R1) != 42 || c.Reg(R2) != 1 {
		t.Errorf("r1=%d r2=%d, want 42, 1", c.Reg(R1), c.Reg(R2))
	}
}

func TestAtomics(t *testing.T) {
	b := NewBuilder("atomics")
	b.Li(R1, 128) // address
	b.Li(R2, 7)
	b.St(R1, 0, R2) // mem = 7

	b.Li(R3, 100)
	b.Xchg(R4, R1, 0, R3) // r4 = 7, mem = 100

	b.Li(R5, 100)            // expected
	b.Li(R6, 200)            // new
	b.Cas(R7, R1, 0, R5, R6) // r7 = 100 (success), mem = 200

	b.Li(R8, 999)
	b.Cas(R9, R1, 0, R8, R5) // fails: r9 = 200, mem unchanged

	b.Li(R11, 5)
	b.Fadd(R12, R1, 0, R11) // r12 = 200, mem = 205
	b.Halt()
	c, m := runProgram(t, b, 256, 30)
	if c.Reg(R4) != 7 {
		t.Errorf("xchg old = %d, want 7", c.Reg(R4))
	}
	if c.Reg(R7) != 100 {
		t.Errorf("cas old = %d, want 100", c.Reg(R7))
	}
	if c.Reg(R9) != 200 {
		t.Errorf("failed cas old = %d, want 200", c.Reg(R9))
	}
	if c.Reg(R12) != 200 {
		t.Errorf("fadd old = %d, want 200", c.Reg(R12))
	}
	if m.Load(128) != 205 {
		t.Errorf("final mem = %d, want 205", m.Load(128))
	}
}

func TestRepMovs(t *testing.T) {
	b := NewBuilder("repmovs")
	b.Li(R1, 512) // dst
	b.Li(R2, 64)  // src
	b.Li(R3, 8)   // count
	b.RepMovs(R1, R2, R3)
	b.Halt()
	prog := b.Build(1024, 1, nil)
	m := mem.New(1024)
	for i := uint64(0); i < 8; i++ {
		m.Store(64+i*8, i+100)
	}
	c := NewCore(0, prog, flatPort{m})

	// Step through and observe REP progress markers.
	ticks, retires := 0, 0
	for !c.Halted() {
		switch c.Step() {
		case StepRepTick:
			ticks++
			if active, done := c.RepInFlight(); !active || done != uint64(ticks) {
				t.Fatalf("rep in flight = (%v, %d), want (true, %d)", active, done, ticks)
			}
		case StepRepRetired:
			retires++
		}
	}
	if ticks != 7 || retires != 1 {
		t.Errorf("ticks=%d retires=%d, want 7, 1", ticks, retires)
	}
	for i := uint64(0); i < 8; i++ {
		if got := m.Load(512 + i*8); got != i+100 {
			t.Errorf("dst[%d] = %d, want %d", i, got, i+100)
		}
	}
	// Registers advanced architecturally.
	if c.Reg(R1) != 512+64 || c.Reg(R2) != 64+64 || c.Reg(R3) != 0 {
		t.Errorf("post-rep regs: dst=%d src=%d cnt=%d", c.Reg(R1), c.Reg(R2), c.Reg(R3))
	}
	// REP counts as a single retired instruction (3 LIs + 1 REP + 1 HALT).
	if c.Retired() != 5 {
		t.Errorf("retired = %d, want 5", c.Retired())
	}
}

func TestRepStosZeroCount(t *testing.T) {
	b := NewBuilder("repzero")
	b.Li(R1, 64)
	b.Li(R2, 42)
	b.Li(R3, 0)
	b.RepStos(R1, R2, R3)
	b.Halt()
	c, m := runProgram(t, b, 256, 10)
	if m.Load(64) != 0 {
		t.Error("zero-count REP wrote memory")
	}
	if c.Retired() != 5 {
		t.Errorf("retired = %d, want 5", c.Retired())
	}
}

func TestRepStos(t *testing.T) {
	b := NewBuilder("repstos")
	b.Li(R1, 128)
	b.Li(R2, 0xabcd)
	b.Li(R3, 4)
	b.RepStos(R1, R2, R3)
	b.Halt()
	_, m := runProgram(t, b, 512, 20)
	for i := uint64(0); i < 4; i++ {
		if got := m.Load(128 + i*8); got != 0xabcd {
			t.Errorf("fill[%d] = %#x, want 0xabcd", i, got)
		}
	}
	if m.Load(160) != 0 {
		t.Error("REP overran its count")
	}
}

func TestSyscallTrap(t *testing.T) {
	b := NewBuilder("sys")
	b.Li(RRet, 7) // sysno
	b.Li(R11, 11) // arg1
	b.Syscall()
	b.Mov(R2, RRet) // capture result
	b.Halt()
	prog := b.Build(64, 1, nil)
	c := NewCore(0, prog, flatPort{mem.New(64)})

	for c.Step() != StepSyscall {
	}
	if !c.InSyscall() {
		t.Fatal("core not in syscall")
	}
	sysno, a1, _, _, _ := c.SyscallArgs()
	if sysno != 7 || a1 != 11 {
		t.Fatalf("syscall args = %d, %d; want 7, 11", sysno, a1)
	}
	// Repeated steps while stalled stay in syscall and retire nothing.
	before := c.Retired()
	if c.Step() != StepSyscall {
		t.Fatal("stalled core should keep reporting StepSyscall")
	}
	if c.Retired() != before {
		t.Fatal("stalled core retired an instruction")
	}
	c.CompleteSyscall(555)
	for !c.Halted() {
		c.Step()
	}
	if c.Reg(R2) != 555 {
		t.Errorf("syscall result = %d, want 555", c.Reg(R2))
	}
}

func TestAbortSyscall(t *testing.T) {
	b := NewBuilder("sysabort")
	b.Li(RRet, 1)
	b.Syscall()
	b.Halt()
	prog := b.Build(64, 1, nil)
	c := NewCore(0, prog, flatPort{mem.New(64)})
	for c.Step() != StepSyscall {
	}
	pc := c.PC()
	c.AbortSyscall()
	if c.PC() != pc {
		t.Error("AbortSyscall moved PC")
	}
	// Re-executes the same syscall.
	if c.Step() != StepSyscall {
		t.Error("expected syscall re-trap after abort")
	}
}

func TestContextSaveRestore(t *testing.T) {
	b := NewBuilder("ctx")
	b.Li(R1, 1)
	b.Li(R2, 2)
	b.Halt()
	prog := b.Build(64, 1, nil)
	c := NewCore(0, prog, flatPort{mem.New(64)})
	c.Step()
	ctx := c.SaveContext()
	c.Step()
	c.Step()
	if !c.Halted() {
		t.Fatal("expected halt")
	}
	c.RestoreContext(ctx)
	if c.Halted() || c.PC() != 1 || c.Reg(R1) != 1 || c.Reg(R2) != 0 {
		t.Errorf("restore mismatch: halted=%v pc=%d r1=%d r2=%d",
			c.Halted(), c.PC(), c.Reg(R1), c.Reg(R2))
	}
	// Resume runs to completion again.
	for !c.Halted() {
		c.Step()
	}
	if c.Reg(R2) != 2 {
		t.Errorf("r2 after resume = %d, want 2", c.Reg(R2))
	}
}

func TestContextMidRep(t *testing.T) {
	b := NewBuilder("ctxrep")
	b.Li(R1, 64)
	b.Li(R2, 9)
	b.Li(R3, 5)
	b.RepStos(R1, R2, R3)
	b.Halt()
	prog := b.Build(512, 1, nil)
	m := mem.New(512)
	c := NewCore(0, prog, flatPort{m})
	// Run 3 LIs + 2 REP iterations.
	for i := 0; i < 5; i++ {
		c.Step()
	}
	if active, done := c.RepInFlight(); !active || done != 2 {
		t.Fatalf("rep state = (%v, %d), want (true, 2)", active, done)
	}
	ctx := c.SaveContext()

	// Migrate to a fresh core and finish.
	c2 := NewCore(1, prog, flatPort{m})
	c2.RestoreContext(ctx)
	if active, done := c2.RepInFlight(); !active || done != 2 {
		t.Fatalf("restored rep state = (%v, %d), want (true, 2)", active, done)
	}
	for !c2.Halted() {
		c2.Step()
	}
	for i := uint64(0); i < 5; i++ {
		if m.Load(64+i*8) != 9 {
			t.Errorf("fill[%d] = %d, want 9", i, m.Load(64+i*8))
		}
	}
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	defer func() {
		if recover() == nil {
			t.Error("undefined label did not panic")
		}
	}()
	b.Build(64, 1, nil)
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	b.Label("x")
}

func TestInstrStrings(t *testing.T) {
	// Every opcode must render a non-empty, distinct-enough mnemonic.
	b := NewBuilder("strings")
	b.Nop()
	b.Halt()
	b.Li(R1, 5)
	b.Mov(R1, R2)
	b.Add(R1, R2, R3)
	b.Addi(R1, R2, 7)
	b.Ld(R1, R2, 8)
	b.St(R2, 8, R1)
	b.Label("x")
	b.Beq(R1, R2, "x")
	b.Jmp("x")
	b.Jal(R31, "x")
	b.Jr(R31)
	b.Xchg(R1, R2, 0, R3)
	b.Cas(R1, R2, 0, R3, R4)
	b.Fadd(R1, R2, 0, R3)
	b.RepMovs(R1, R2, R3)
	b.RepStos(R1, R2, R3)
	b.Syscall()
	b.Fence()
	prog := b.Build(64, 1, nil)
	seen := map[string]bool{}
	for _, in := range prog.Code {
		s := in.String()
		if s == "" {
			t.Errorf("empty disassembly for %v", in.Op)
		}
		seen[s] = true
	}
	if len(seen) < 18 {
		t.Errorf("only %d distinct disassemblies", len(seen))
	}
}

func TestOpClassPredicates(t *testing.T) {
	cases := []struct {
		op     Op
		atomic bool
	}{
		{OpLd, false},
		{OpSt, false},
		{OpXchg, true},
		{OpCas, true},
		{OpFadd, true},
		{OpRepMovs, false},
		{OpRepStos, false},
		{OpBeq, false},
		{OpJmp, false},
		{OpAdd, false},
	}
	for _, c := range cases {
		if c.op.IsAtomic() != c.atomic {
			t.Errorf("%v.IsAtomic() = %v, want %v", c.op, !c.atomic, c.atomic)
		}
	}
}

func TestSymbolPanicsWhenMissing(t *testing.T) {
	p := &Program{Name: "p", Symbols: map[string]uint64{}}
	defer func() {
		if recover() == nil {
			t.Error("missing symbol did not panic")
		}
	}()
	p.Symbol("ghost")
}

func TestALUProperty(t *testing.T) {
	// add/sub round-trips for arbitrary operands.
	f := func(x, y uint64) bool {
		b := NewBuilder("prop")
		b.Liu(R1, x)
		b.Liu(R2, y)
		b.Add(R3, R1, R2)
		b.Sub(R4, R3, R2)
		b.Halt()
		prog := b.Build(64, 1, nil)
		c := NewCore(0, prog, flatPort{mem.New(64)})
		for !c.Halted() {
			c.Step()
		}
		return c.Reg(R4) == x && c.Reg(R3) == x+y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByteLoadsAndStores(t *testing.T) {
	b := NewBuilder("bytes")
	b.Li(R1, 64) // word address
	b.Liu(R2, 0x8081828384858687)
	b.St(R1, 0, R2)
	b.Lbu(R3, R1, 0) // 0x87
	b.Lbu(R4, R1, 7) // 0x80
	b.Lb(R5, R1, 1)  // 0x86 sign-extended
	b.Li(R6, 0x5A)
	b.Sb(R1, 3, R6) // replace byte 3
	b.Ld(R7, R1, 0)
	b.Lb(R8, R1, 3) // 0x5A positive
	b.Halt()
	c, m := runProgram(t, b, 256, 30)
	if c.Reg(R3) != 0x87 {
		t.Errorf("lbu[0] = %#x, want 0x87", c.Reg(R3))
	}
	if c.Reg(R4) != 0x80 {
		t.Errorf("lbu[7] = %#x, want 0x80", c.Reg(R4))
	}
	if c.Reg(R5) != 0xffffffffffffff86 {
		t.Errorf("lb[1] = %#x, want sign-extended 0x86", c.Reg(R5))
	}
	if got := m.Load(64); got != 0x808182835A858687 {
		t.Errorf("word after sb = %#x", got)
	}
	if c.Reg(R8) != 0x5A {
		t.Errorf("lb[3] = %#x, want 0x5a", c.Reg(R8))
	}
}

func TestByteOpsUnaligned(t *testing.T) {
	// Byte addresses need no alignment; the containing word is accessed.
	b := NewBuilder("unaligned")
	b.Li(R1, 69) // byte 5 of word 64
	b.Li(R2, 0xAB)
	b.Sb(R1, 0, R2)
	b.Lbu(R3, R1, 0)
	b.Halt()
	c, m := runProgram(t, b, 256, 10)
	if c.Reg(R3) != 0xAB {
		t.Errorf("read back %#x, want 0xab", c.Reg(R3))
	}
	if got := m.Load(64); got != 0xAB0000000000 {
		t.Errorf("word = %#x", got)
	}
}

// TestRMWOpApply pins RMWOp.Apply to the update closures Step used to
// hand the port, which stay here as the reference formulas.
func TestRMWOpApply(t *testing.T) {
	sbRef := func(byteVal, shift uint64) func(uint64) uint64 {
		return func(old uint64) uint64 { return (old &^ (uint64(0xff) << shift)) | byteVal<<shift }
	}
	xchgRef := func(newVal uint64) func(uint64) uint64 { return func(uint64) uint64 { return newVal } }
	casRef := func(expect, repl uint64) func(uint64) uint64 {
		return func(cur uint64) uint64 {
			if cur == expect {
				return repl
			}
			return cur
		}
	}
	faddRef := func(delta uint64) func(uint64) uint64 { return func(cur uint64) uint64 { return cur + delta } }

	type tc struct {
		name string
		op   RMWOp
		ref  func(uint64) uint64
		old  uint64
		want uint64
	}
	const word = 0x0123456789abcdef
	cases := []tc{
		{"xchg", RMWOp{Op: OpXchg, A: 42}, xchgRef(42), word, 42},
		{"cas-hit", RMWOp{Op: OpCas, A: word, B: 99}, casRef(word, 99), word, 99},
		{"cas-miss", RMWOp{Op: OpCas, A: word + 1, B: 99}, casRef(word+1, 99), word, word},
		{"fadd", RMWOp{Op: OpFadd, A: 5}, faddRef(5), 200, 205},
		{"fadd-wraparound", RMWOp{Op: OpFadd, A: 3}, faddRef(3), ^uint64(0) - 1, 1},
		{"fadd-minus-one", RMWOp{Op: OpFadd, A: ^uint64(0)}, faddRef(^uint64(0)), 0, ^uint64(0)},
	}
	for off := uint64(0); off < 8; off++ {
		shift := off * 8
		want := word&^(uint64(0xff)<<shift) | uint64(0x5a)<<shift
		cases = append(cases, tc{fmt.Sprintf("sb-offset-%d", off),
			RMWOp{Op: OpSb, A: 0x5a, B: off}, sbRef(0x5a, shift), word, want})
	}
	for _, c := range cases {
		got, ref := c.op.Apply(c.old), c.ref(c.old)
		if got != ref || got != c.want {
			t.Errorf("%s: Apply(%#x) = %#x, closure %#x, want %#x", c.name, c.old, got, ref, c.want)
		}
	}
}

// TestStepAllocatesNothing pins the interpreter's steady state: a loop
// of byte stores and atomics through a flat port allocates nothing.
func TestStepAllocatesNothing(t *testing.T) {
	b := NewBuilder("rmw-loop")
	b.Li(R3, 64)
	b.Li(R4, 0x5a)
	b.Label("loop")
	b.Sb(R3, 5, R4)
	b.Xchg(R5, R3, 8, R4)
	b.Cas(R6, R3, 8, R4, R5)
	b.Fadd(R7, R3, 16, R4)
	b.Addi(R4, R4, 1)
	b.Jmp("loop")
	prog := b.Build(128, 1, nil)
	c := NewCore(0, prog, flatPort{mem.New(128)})
	if n := testing.AllocsPerRun(1000, func() { c.Step() }); n != 0 {
		t.Errorf("Step allocates %v times per call, want 0", n)
	}
}

// stepFault steps c until it halts and returns the execution fault that
// stopped it, or "" if none did. Any other panic propagates.
func stepFault(c *Core) (fault string) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(mem.Fault)
			if !ok {
				panic(r)
			}
			fault = f.Error()
		}
	}()
	for c.Step() != StepHalted {
	}
	return ""
}

// TestWordAccessesFaultWhenUnaligned pins the alignment rule record and
// replay share: every word operand (ld, st, the atomics, both REP string
// pointers) faults on an unaligned address before touching memory, and
// the faulting instruction does not retire.
func TestWordAccessesFaultWhenUnaligned(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *Builder) // R3 holds the address under test, R4 an aligned one
		op   Op
	}{
		{"ld", func(b *Builder) { b.Ld(R5, R3, 0) }, OpLd},
		{"ld-imm", func(b *Builder) { b.Ld(R5, R4, 3) }, OpLd},
		{"st", func(b *Builder) { b.St(R3, 0, R5) }, OpSt},
		{"xchg", func(b *Builder) { b.Xchg(R5, R3, 0, R6) }, OpXchg},
		{"cas", func(b *Builder) { b.Cas(R5, R3, 0, R6, R7) }, OpCas},
		{"fadd", func(b *Builder) { b.Fadd(R5, R3, 0, R6) }, OpFadd},
		{"repmovs-dst", func(b *Builder) { b.RepMovs(R3, R4, R8) }, OpRepMovs},
		{"repmovs-src", func(b *Builder) { b.RepMovs(R4, R3, R8) }, OpRepMovs},
		{"repstos", func(b *Builder) { b.RepStos(R3, R6, R8) }, OpRepStos},
	}
	for _, tc := range cases {
		for _, addr := range []uint64{64, 67} {
			b := NewBuilder(tc.name)
			b.Li(R3, int64(addr))
			b.Li(R4, 128)
			b.Li(R6, 9)
			b.Li(R8, 2)
			tc.emit(b)
			b.Halt()
			prog := b.Build(256, 1, nil)
			m := mem.New(256)
			c := NewCore(0, prog, flatPort{m})
			fault := stepFault(c)
			misaligned := addr%8 != 0 || tc.name == "ld-imm"
			if !misaligned {
				if fault != "" {
					t.Errorf("%s at %#x: unexpected fault %q", tc.name, addr, fault)
				}
				continue
			}
			if !strings.Contains(fault, "unaligned "+tc.op.String()) {
				t.Errorf("%s at %#x: fault %q, want an unaligned %v", tc.name, addr, fault, tc.op)
			}
			if c.Retired() != 4 || c.PC() != 4 {
				t.Errorf("%s: retired %d at PC %d after the fault, want 4 at PC 4", tc.name, c.Retired(), c.PC())
			}
			if m.Checksum() != mem.New(256).Checksum() {
				t.Errorf("%s: faulting access wrote memory", tc.name)
			}
		}
	}
	// A REP with a zero count touches no word, so its pointers may be
	// unaligned.
	b := NewBuilder("rep-zero")
	b.Li(R3, 67)
	b.RepStos(R3, R6, R8)
	b.Halt()
	if fault := stepFault(NewCore(0, b.Build(256, 1, nil), flatPort{mem.New(256)})); fault != "" {
		t.Errorf("zero-count REP faulted: %q", fault)
	}
}

// TestPCOutOfRangeFaults pins the fetch fault's text: running off the end
// of the program, or jumping outside it, faults instead of executing.
func TestPCOutOfRangeFaults(t *testing.T) {
	b := NewBuilder("nohalt")
	b.Li(R1, 5)
	c := NewCore(0, b.Build(64, 1, nil), flatPort{mem.New(64)})
	if got, want := stepFault(c), "isa: core 0 PC 1 out of range (program nohalt, 1 instrs)"; got != want {
		t.Errorf("fault = %q, want %q", got, want)
	}
	b = NewBuilder("jr")
	b.Li(R1, -1)
	b.Jr(R1)
	c = NewCore(3, b.Build(64, 1, nil), flatPort{mem.New(64)})
	if got, want := stepFault(c), "isa: core 3 PC -1 out of range (program jr, 2 instrs)"; got != want {
		t.Errorf("fault = %q, want %q", got, want)
	}
}
