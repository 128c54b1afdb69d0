package machine

import (
	"testing"

	"repro/internal/capo"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/workload"
)

// headerWords returns the words of r's encoded record that are not its
// data: what a buffered call copies into its CBUF besides the data.
func headerWords(r capo.Record) uint64 {
	empty := len((&capo.InputLog{}).Marshal())
	n := len((&capo.InputLog{Records: []capo.Record{r}}).Marshal()) - empty
	return uint64(n-len(r.Data)+7) / 8
}

// emitBufferedCalls emits one of each syscall that completes without
// blocking, rescheduling or touching signal state: gettime, random,
// gettid, a 64-byte read and write, a futex_wake on a word nobody waits
// on and a futex_wait whose expected value is stale.
func emitBufferedCalls(b *isa.Builder, buf, word uint64) {
	workload.EmitSyscall0(b, capo.SysGetTime)
	workload.EmitSyscall0(b, capo.SysRandom)
	workload.EmitSyscall0(b, capo.SysGetTID)
	for _, sysno := range []uint64{capo.SysRead, capo.SysWrite} {
		b.Li(isa.RRet, int64(sysno))
		b.Li(isa.R11, 1)
		b.Liu(isa.R12, buf)
		b.Li(isa.R13, 64)
		b.Syscall()
	}
	b.Li(isa.RRet, int64(capo.SysFutexWake))
	b.Liu(isa.R11, word)
	b.Li(isa.R12, 1)
	b.Syscall()
	b.Li(isa.RRet, int64(capo.SysFutexWait))
	b.Liu(isa.R11, word)
	b.Li(isa.R12, 1) // the word holds 0
	b.Syscall()
}

// TestSyscallCrossings pins which syscalls enter the RSM driver in
// ModeFull. A call crosses, once and after the kernel has handled it,
// when it blocks, exits or reschedules its thread, or registers or
// returns from a signal handler. Every other call is buffered: the
// thread copies its record into its input CBUF, paying RecInputPerWord
// per data and header word, and a full input CBUF drains through one
// crossing.
func TestSyscallCrossings(t *testing.T) {
	pp := perf.DefaultParams()
	crossings := func(t *testing.T, res *Result) uint64 {
		t.Helper()
		c := res.Acct.Get(perf.CompRecDriver)
		if c%pp.RecSyscallExtra != 0 {
			t.Fatalf("driver cycles %d are not whole crossings of %d", c, pp.RecSyscallExtra)
		}
		return c / pp.RecSyscallExtra
	}
	// bufferedCopy is what res's buffered records cost to copy: their
	// data words and their header words.
	bufferedCopy := func(res *Result, buffered func(capo.Record) bool) uint64 {
		var words uint64
		for _, r := range res.Session.InputLog().Records {
			if buffered(r) {
				words += uint64(len(r.Data)+7)/8 + headerWords(r)
			}
		}
		return pp.RecInputPerWord * words
	}
	all := func(capo.Record) bool { return true }

	t.Run("buffered", func(t *testing.T) {
		for _, exit := range []bool{false, true} {
			var lay mem.Layout
			buf, word := lay.AllocWords(8), lay.AllocWords(1)
			b := isa.NewBuilder("buffered")
			emitBufferedCalls(b, buf, word)
			if exit {
				workload.EmitExit(b)
			}
			b.Halt()
			res := run(t, b.Build(lay.Size(), 1, nil), func(c *Config) { c.Mode = ModeFull })
			recs := res.Session.InputLog().Records
			want := uint64(0)
			if exit {
				want = 1
			}
			if len(recs) != 7+int(want) {
				t.Fatalf("exit=%v: %d input records, want %d", exit, len(recs), 7+want)
			}
			if wait := recs[6]; wait.Sysno != capo.SysFutexWait || wait.Ret != capo.FutexEAgain {
				t.Fatalf("record 6 is %v, want a futex_wait returning FutexEAgain", wait)
			}
			if got := crossings(t, res); got != want {
				t.Errorf("exit=%v: %d crossings, want %d", exit, got, want)
			}
			notExit := func(r capo.Record) bool { return r.Sysno != capo.SysExit }
			if got, want := res.Acct.Get(perf.CompRecInputCopy), bufferedCopy(res, notExit); got != want {
				t.Errorf("exit=%v: input copy %d cycles, want %d", exit, got, want)
			}
		}
	})

	t.Run("yield", func(t *testing.T) {
		b := isa.NewBuilder("yield")
		workload.EmitSyscall0(b, capo.SysYield)
		b.Halt()
		res := run(t, b.Build(64, 1, nil), func(c *Config) { c.Mode = ModeFull })
		if got := crossings(t, res); got != 1 {
			t.Errorf("%d crossings, want 1", got)
		}
		if got := res.Acct.Get(perf.CompRecInputCopy); got != 0 {
			t.Errorf("a crossing call paid %d input-copy cycles", got)
		}
	})

	t.Run("signals", func(t *testing.T) {
		// Registering the handler crosses once; one delivered signal's
		// handler returns through SysSigReturn, which crosses once.
		prog := sigProg(1200)
		res := run(t, prog, func(c *Config) {
			c.Mode = ModeFull
			c.Threads = 1
			c.SignalPeriodInstrs = 2000
		})
		if res.SignalsDelivered != 1 {
			t.Fatalf("%d signals delivered, want 1", res.SignalsDelivered)
		}
		if got := crossings(t, res); got != 2 {
			t.Errorf("%d crossings, want 2 (sighandler, sigreturn)", got)
		}
		if got := res.Acct.Get(perf.CompRecInputCopy); got != 0 {
			t.Errorf("crossing calls paid %d input-copy cycles", got)
		}
	})

	t.Run("futex sleep", func(t *testing.T) {
		// Thread 1 sleeps on word until thread 0, after a long spin,
		// sets it and wakes it.
		var lay mem.Layout
		word := lay.AllocWords(1)
		b := isa.NewBuilder("sleeper")
		b.Liu(isa.R3, word)
		b.Bne(workload.RegTID, isa.R0, "sleep")
		b.Li(isa.R4, 0)
		b.Li(isa.R5, 2000)
		b.Label("spin")
		b.Addi(isa.R4, isa.R4, 1)
		b.Bne(isa.R4, isa.R5, "spin")
		b.Li(isa.R6, 1)
		b.St(isa.R3, 0, isa.R6)
		b.Li(isa.RRet, int64(capo.SysFutexWake))
		b.Mov(isa.R11, isa.R3)
		b.Li(isa.R12, 1)
		b.Syscall()
		b.Halt()
		b.Label("sleep")
		b.Li(isa.RRet, int64(capo.SysFutexWait))
		b.Mov(isa.R11, isa.R3)
		b.Li(isa.R12, 0)
		b.Syscall()
		b.Halt()
		res := run(t, b.Build(lay.Size(), 2, nil), func(c *Config) {
			c.Mode = ModeFull
			c.Cores = 2
		})
		if got := res.Acct.Get(perf.CompRecSched); got != pp.RecSwitchExtra {
			t.Fatalf("sched cycles %d, want one RecSwitchExtra (%d): thread 1 must sleep once",
				got, pp.RecSwitchExtra)
		}
		if got := crossings(t, res); got != 1 {
			t.Errorf("%d crossings, want 1 (the attempt that slept)", got)
		}
		if res.Syscalls != 2 {
			t.Errorf("%d calls completed, want 2 (the wake and the re-executed wait)", res.Syscalls)
		}
		if got, want := res.Acct.Get(perf.CompRecInputCopy), bufferedCopy(res, all); got != want {
			t.Errorf("input copy %d cycles, want %d (header words only)", got, want)
		}
	})

	t.Run("cbuf drains", func(t *testing.T) {
		var lay mem.Layout
		buf := lay.AllocWords(8)
		b := isa.NewBuilder("reader")
		b.Li(isa.R3, 0)
		b.Li(isa.R4, 20)
		b.Label("loop")
		b.Li(isa.RRet, int64(capo.SysRead))
		b.Li(isa.R11, 0)
		b.Liu(isa.R12, buf)
		b.Li(isa.R13, 64)
		b.Syscall()
		b.Addi(isa.R3, isa.R3, 1)
		b.Bne(isa.R3, isa.R4, "loop")
		b.Halt()
		res := run(t, b.Build(lay.Size(), 1, nil), func(c *Config) {
			c.Mode = ModeFull
			c.CbufBytes = 256
		})
		k := res.Session.Flushes(capo.FlushInput)
		if k < 2 || res.Session.Flushes(capo.FlushChunk) != 0 {
			t.Fatalf("%d input and %d chunk CBUF flushes, want at least 2 and none",
				k, res.Session.Flushes(capo.FlushChunk))
		}
		if got := crossings(t, res); got != k {
			t.Errorf("%d crossings for %d input CBUF drains", got, k)
		}
		if got := res.Acct.Get(perf.CompRecCbufFlush); got != k*pp.RecCbufFlush {
			t.Errorf("flush cycles %d, want %d", got, k*pp.RecCbufFlush)
		}
		if got, want := res.Acct.Get(perf.CompRecInputCopy), bufferedCopy(res, all); got != want {
			t.Errorf("input copy %d cycles, want %d", got, want)
		}
	})
}
