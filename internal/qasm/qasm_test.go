package qasm_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/qasm"
)

const counterSrc = `
; atomic counter in qasm
.name qcounter
.threads 4
.alloc counter 1
.alloc bar 2

        li   r3, @counter
        li   r4, 0
        li   r5, 500
        li   r6, 1
loop:   fadd r7, [r3+0], r6
        addi r4, r4, 1
        bne  r4, r5, loop
        li   r9, @bar
        pbarrier r9
        halt
`

func TestParseAndRunCounter(t *testing.T) {
	prog, err := qasm.Parse(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "qcounter" || prog.DefaultThreads != 4 {
		t.Fatalf("header: name=%q threads=%d", prog.Name, prog.DefaultThreads)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 4
	m := machine.New(prog, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Memory().Load(prog.Symbol("counter")); got != 2000 {
		t.Errorf("counter = %d, want 2000", got)
	}
}

func TestParsedProgramRecordsAndReplays(t *testing.T) {
	prog, err := qasm.Parse(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 4
	cfg.Seed = 9
	if _, _, err := core.RecordAndVerify(prog, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLockPseudoInstructions(t *testing.T) {
	src := `
.threads 4
.alloc lock 1
.alloc shared 1
        li   r3, @lock
        li   r4, @shared
        li   r5, 0
loop:   plock r3
        ld   r6, [r4+0]
        addi r6, r6, 1
        st   [r4+0], r6
        punlock r3
        addi r5, r5, 1
        li   r7, 200
        bne  r5, r7, loop
        halt
`
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 4
	m := machine.New(prog, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Memory().Load(prog.Symbol("shared")); got != 800 {
		t.Errorf("shared = %d, want 800 (mutex broken)", got)
	}
}

func TestInitDirectiveAndSyscalls(t *testing.T) {
	src := `
.threads 1
.alloc data 2
.init data 0 41
        li  r3, @data
        ld  r4, [r3+0]
        addi r4, r4, 1
        st  [r3+8], r4
        li  r10, 2        ; SysWrite
        li  r11, 1
        mov r12, r3
        li  r13, 16
        syscall
        halt
`
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 1
	m := machine.New(prog, cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Memory().Load(prog.Symbol("data")+8) != 42 {
		t.Error("init value not incremented")
	}
	if len(res.Output) != 16 || res.Output[0] != 41 || res.Output[8] != 42 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestNegativeOffsetsAndHex(t *testing.T) {
	src := `
.threads 1
.alloc arr 4
        li r3, @arr
        addi r3, r3, 16
        li r4, 0xff
        st [r3-8], r4
        ld r5, [r3-8]
        halt
`
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 1
	m := machine.New(prog, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Memory().Load(prog.Symbol("arr") + 8); got != 0xff {
		t.Errorf("arr[1] = %#x, want 0xff", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{".name", ".name needs"},
		{".threads zero", "bad thread count"},
		{".alloc x", ".alloc needs"},
		{".alloc x 0", "bad word count"},
		{".alloc x 1\n.alloc x 1", "duplicate symbol"},
		{".init y 0 1\nhalt", "unknown symbol"},
		{".alloc x 2\n.init x 2 1\nhalt", "outside symbol"},
		{".bogus", "unknown directive"},
		{"frobnicate r1", "unknown mnemonic"},
		{"li r99, 1", "bad register"},
		{"li r1", "needs 2 operands"},
		{"li r1, @ghost", "unknown symbol"},
		{"ld r1, r2", "expected memory reference"},
		{"li r1, zzz", "bad immediate"},
		{"jmp nowhere", "undefined label"},
		{"x: halt\nx: halt", "duplicate label"},
		{": halt", "empty label"},
	}
	for _, c := range cases {
		_, err := qasm.Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestLineNumbersInErrors(t *testing.T) {
	_, err := qasm.Parse("nop\nnop\nbadop r1\n")
	if err == nil || !strings.Contains(err.Error(), "qasm:3:") {
		t.Errorf("error = %v, want line 3", err)
	}
}

func TestAllMnemonicsParse(t *testing.T) {
	src := `
.threads 1
.alloc d 8
  li r3, @d
  nop
  fence
  mov r4, r3
  add r5, r4, r3
  sub r5, r4, r3
  mul r5, r4, r3
  div r5, r4, r3
  rem r5, r4, r3
  and r5, r4, r3
  or  r5, r4, r3
  xor r5, r4, r3
  shl r5, r4, r0
  shr r5, r4, r0
  slt r5, r4, r3
  sltu r5, r4, r3
  addi r5, r4, 1
  muli r5, r4, 2
  andi r5, r4, 3
  ori  r5, r4, 4
  xori r5, r4, 5
  shli r5, r4, 1
  shri r5, r4, 1
  ld r6, [r3+0]
  st [r3+8], r6
  lb  r6, [r3+1]
  lbu r6, [r3+2]
  sb  [r3+3], r6
  xchg r6, [r3+0], r5
  cas r6, [r3+0], r5, r4
  fadd r6, [r3+0], r5
  li r7, 2
  mov r8, r3
  repstos r8, r5, r7
  li r7, 2
  mov r8, r3
  addi r9, r3, 32
  repmovs r9, r8, r7
  jal r31, fn
  jmp end
fn: jr r31
end:
  lilabel r15, end
  beq r0, r0, end2
end2:
  bne r0, r3, e3
e3:
  blt r0, r3, e4
e4:
  bge r3, r0, e5
e5:
  bltu r0, r3, e6
e6:
  bgeu r3, r0, e7
e7:
  halt
`
	prog, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threads = 1
	if _, err := machine.New(prog, cfg).Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFutexWakeAllRoundTrip records, replays and verifies a program
// whose futex_wake passes a count of -1, which must mean "wake every
// waiter" rather than crash the recorder.
func TestFutexWakeAllRoundTrip(t *testing.T) {
	prog, err := qasm.Parse(`
.name wakeall
.threads 2
.alloc word 1
        li   r3, @word
        li   r10, 8       ; SysFutexWake
        mov  r11, r3
        li   r12, -1      ; wake everyone
        syscall
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	b, _, err := core.RecordAndVerify(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.InputLog.Len(); n != 2 {
		t.Fatalf("input log has %d records, want one wake per thread", n)
	}
	for _, r := range b.InputLog.Records {
		if r.Ret != 0 {
			t.Errorf("%v: woke %d threads, want 0 (no waiters)", r, r.Ret)
		}
	}
}
