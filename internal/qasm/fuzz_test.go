package qasm_test

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/qasm"
)

// faultPrograms each make the recorder fault: the run must end with an
// error wrapping machine.ErrFault whose text names the fault, never a
// panic.
var faultPrograms = []struct{ name, fault, src string }{
	{"no-halt", "PC 1 out of range", `
.threads 1
        li   r1, 5
`},
	{"load-beyond-memory", "access at 0x10000000 beyond size", `
.threads 1
        li   r1, 0x10000000
        ld   r2, [r1+0]
        halt
`},
	{"read-length-2^62", "overrun memory", `
.threads 1
.alloc buf 4
        li   r10, 3            ; read(0, @buf, 2^62)
        li   r11, 0
        li   r12, @buf
        li   r13, 0x4000000000000000
        syscall
        halt
`},
	{"unknown-syscall", "unknown syscall 99", `
.threads 1
        li   r10, 99
        syscall
        halt
`},
	{"unaligned-store", "unaligned st at 0x1005", `
.threads 1
        li   r1, 4096
        li   r3, 7
        st   [r1+5], r3
        halt
`},
	{"unaligned-read-buffer", "unaligned buffer at 0x3", `
.threads 1
.alloc buf 4
        li   r10, 3            ; read(0, @buf+3, 8)
        li   r11, 0
        li   r12, @buf
        addi r12, r12, 3
        li   r13, 8
        syscall
        halt
`},
	{"sigreturn-outside-handler", "sigreturn outside a signal handler", `
.threads 1
        li   r10, 12           ; sigreturn with no signal delivered
        syscall
        halt
`},
}

// unalignedFutexSrc waits on an unaligned futex word. Futex words need no
// alignment: the wait compares the containing word, replay never reads
// it, and the recording verifies.
const unalignedFutexSrc = `
.threads 2
.alloc w 2
        li   r3, @w
        addi r3, r3, 3         ; futex word address, not word-aligned
        bne  r1, r0, waker
        li   r10, 7            ; futex_wait(w+3, 0)
        mov  r11, r3
        li   r12, 0
        syscall
        halt
waker:  li   r4, 0
        li   r5, 200
spin:   addi r4, r4, 1
        bne  r4, r5, spin
        li   r6, @w
        li   r7, 1
        st   [r6+0], r7
        li   r10, 8            ; futex_wake(w+3, 1)
        mov  r11, r3
        li   r12, 1
        syscall
        halt
`

// fuzzConfig is the machine FuzzQasmRecord records on: two cores and a
// 20,000-step budget, so every input runs in bounded time.
func fuzzConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 2
	cfg.MaxSteps = 20_000
	return cfg
}

// recordAndVerify records prog on cfg and, when the recording succeeds,
// replays and verifies it. A record error is returned as is; a replay or
// verification failure fails the test.
func recordAndVerify(t *testing.T, prog *isa.Program, cfg machine.Config) error {
	t.Helper()
	b, err := core.Record(prog, cfg)
	if err != nil {
		return err
	}
	rr, err := core.Replay(prog, b)
	if err != nil {
		t.Fatalf("replay of an honest recording: %v", err)
	}
	if err := core.Verify(b, rr); err != nil {
		t.Fatalf("verify of an honest recording: %v", err)
	}
	return nil
}

func TestRecordFaultsAreErrors(t *testing.T) {
	for _, fp := range faultPrograms {
		t.Run(fp.name, func(t *testing.T) {
			prog, err := qasm.Parse(fp.src)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fuzzConfig()
			cfg.Threads = 1
			err = recordAndVerify(t, prog, cfg)
			if !errors.Is(err, machine.ErrFault) || !strings.Contains(err.Error(), fp.fault) {
				t.Fatalf("record error = %v, want machine.ErrFault naming %q", err, fp.fault)
			}
		})
	}
}

func TestUnalignedFutexRecordsAndVerifies(t *testing.T) {
	prog, err := qasm.Parse(unalignedFutexSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4} {
		cfg := fuzzConfig()
		cfg.Threads = threads
		if err := recordAndVerify(t, prog, cfg); err != nil {
			t.Fatalf("%d threads: %v", threads, err)
		}
	}
}

// FuzzQasmRecord feeds program text to qasm.Parse. A program that parses
// and needs at most 1 MiB is recorded on two cores under a 20,000-step
// budget: recording may fail only with a machine sentinel, and a
// recording that succeeds must replay and verify. No input may panic.
func FuzzQasmRecord(f *testing.F) {
	for _, fp := range faultPrograms {
		f.Add(fp.src)
	}
	f.Add(unalignedFutexSrc)
	f.Add(counterSrc)
	demo, err := os.ReadFile("../../examples/qasm/demo.qasm")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(demo))
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := qasm.Parse(src)
		if err != nil || prog.MemBytes > 1<<20 {
			return
		}
		err = recordAndVerify(t, prog, fuzzConfig())
		if err != nil && !errors.Is(err, machine.ErrFault) &&
			!errors.Is(err, machine.ErrDeadlock) && !errors.Is(err, machine.ErrStepLimit) {
			t.Fatalf("record error %v matches no machine sentinel", err)
		}
	})
}
