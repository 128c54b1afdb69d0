package workload

import (
	"repro/internal/capo"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Long-running server workloads: request-processing loops that sustain
// syscall and synchronization traffic indefinitely — the always-on
// services a flight recorder (checkpoints plus a recording's tail, see
// core.TailAt) is built for. Both are bounded by a per-thread request
// count so tests terminate, but the loop body has no phase structure:
// any checkpoint interval cut out of the middle of a run looks like any
// other, which is exactly what the flight-recorder tests need.

// ReqServer builds a request server over a shared futex-locked bounded
// ring: every thread is both producer and consumer. Per iteration a
// thread reads a 16-byte request from fd 0 (external nondeterminism),
// enqueues the payload, dequeues one item (not necessarily its own),
// folds it into a bucket-locked stats table, stamps the iteration with
// SysGetTime, and every 8th iteration writes an 8-byte response to fd 1.
// Full/empty conditions park on the ring's count word with FutexWait.
//
// The produce-then-consume-per-iteration shape makes the queue protocol
// deadlock-free without a drain phase: a thread waiting to produce has
// produced exactly as many items as it consumed, so "all threads stuck
// producing" would need count == slots and count == 0 at once; a thread
// waiting to consume has produced one more than it consumed, so the ring
// cannot be globally empty while anyone waits on it. Every enqueue and
// dequeue wakes all sleepers on the count word.
//
// slots and buckets must be powers of two.
func ReqServer(requestsPerThread int64, slots, buckets uint64, threads int) *isa.Program {
	if slots&(slots-1) != 0 || buckets&(buckets-1) != 0 {
		panic("workload: ReqServer slots and buckets must be powers of two")
	}
	var lay mem.Layout
	// Ring control words, one cache line: [lock, count, head, tail, ...].
	qctl := lay.AllocWords(8)
	ring := lay.AllocWords(slots)
	// One cache line per stats bucket: [lock, count, sum, ...].
	stats := lay.AllocWords(buckets * 8)
	bar := lay.AllocWords(2)

	b := isa.NewBuilder("reqserver")
	b.Liu(isa.R3, qctl)
	b.Liu(isa.R4, ring)
	b.Liu(isa.R6, stats)
	b.Addi(isa.R5, RegStack, 64) // private request buffer
	b.Li(isa.R7, 0)              // iteration counter
	b.Li(isa.R17, 0)             // response accumulator

	b.Label("serve")
	// Receive one request: key, value (external input).
	b.Li(isa.RRet, int64(capo.SysRead))
	b.Li(isa.R11, 0)
	b.Mov(isa.R12, isa.R5)
	b.Li(isa.R13, 16)
	b.Syscall()
	b.Ld(isa.R15, isa.R5, 0)
	b.Ld(isa.R16, isa.R5, 8)
	b.Add(isa.R18, isa.R15, isa.R16) // payload = key + value

	b.Label("produce")
	EmitFutexLock(b, "qp", isa.R3)
	b.Ld(isa.R19, isa.R3, 8) // count
	b.Li(isa.R28, int64(slots))
	b.Bne(isa.R19, isa.R28, "havespace")
	// Ring full: release the lock and park until a dequeue moves count.
	EmitFutexUnlock(b, "qpf", isa.R3)
	b.Li(isa.RRet, int64(capo.SysFutexWait))
	b.Addi(isa.R11, isa.R3, 8)
	b.Li(isa.R12, int64(slots))
	b.Syscall()
	b.Jmp("produce")
	b.Label("havespace")
	b.Ld(isa.R19, isa.R3, 24) // tail
	b.Andi(isa.R15, isa.R19, int64(slots-1))
	b.Muli(isa.R15, isa.R15, 8)
	b.Add(isa.R15, isa.R4, isa.R15)
	b.St(isa.R15, 0, isa.R18) // ring[tail % slots] = payload
	b.Addi(isa.R19, isa.R19, 1)
	b.St(isa.R3, 24, isa.R19)
	b.Ld(isa.R19, isa.R3, 8)
	b.Addi(isa.R19, isa.R19, 1)
	b.St(isa.R3, 8, isa.R19) // count++
	EmitFutexUnlock(b, "qpu", isa.R3)
	b.Li(isa.RRet, int64(capo.SysFutexWake))
	b.Addi(isa.R11, isa.R3, 8)
	b.Li(isa.R12, 1<<30) // wake all sleepers on count
	b.Syscall()

	b.Label("consume")
	EmitFutexLock(b, "qc", isa.R3)
	b.Ld(isa.R19, isa.R3, 8) // count
	b.Bne(isa.R19, isa.R0, "haveitem")
	// Ring empty: release the lock and park until an enqueue moves count.
	EmitFutexUnlock(b, "qce", isa.R3)
	b.Li(isa.RRet, int64(capo.SysFutexWait))
	b.Addi(isa.R11, isa.R3, 8)
	b.Li(isa.R12, 0)
	b.Syscall()
	b.Jmp("consume")
	b.Label("haveitem")
	b.Ld(isa.R19, isa.R3, 16) // head
	b.Andi(isa.R15, isa.R19, int64(slots-1))
	b.Muli(isa.R15, isa.R15, 8)
	b.Add(isa.R15, isa.R4, isa.R15)
	b.Ld(isa.R28, isa.R15, 0) // item (any thread's payload)
	b.Addi(isa.R19, isa.R19, 1)
	b.St(isa.R3, 16, isa.R19)
	b.Ld(isa.R19, isa.R3, 8)
	b.Addi(isa.R19, isa.R19, -1)
	b.St(isa.R3, 8, isa.R19) // count--
	EmitFutexUnlock(b, "qcu", isa.R3)
	b.Li(isa.RRet, int64(capo.SysFutexWake))
	b.Addi(isa.R11, isa.R3, 8)
	b.Li(isa.R12, 1<<30)
	b.Syscall()

	// Process: fold the item into its bucket-locked stats line.
	b.Andi(isa.R15, isa.R28, int64(buckets-1))
	b.Muli(isa.R15, isa.R15, 64)
	b.Add(isa.R15, isa.R6, isa.R15) // bucket base (lock word)
	EmitFutexLock(b, "sb", isa.R15)
	b.Ld(isa.R16, isa.R15, 8)
	b.Addi(isa.R16, isa.R16, 1)
	b.St(isa.R15, 8, isa.R16) // count++
	b.Ld(isa.R16, isa.R15, 16)
	b.Add(isa.R16, isa.R16, isa.R28)
	b.St(isa.R15, 16, isa.R16) // sum += item
	EmitFutexUnlock(b, "sbu", isa.R15)
	b.Add(isa.R17, isa.R17, isa.R28)

	// Stamp the iteration (more input-log traffic) and respond every 8th.
	EmitSyscall0(b, capo.SysGetTime)
	b.Andi(isa.R19, isa.R7, 7)
	b.Bne(isa.R19, isa.R0, "next")
	b.St(isa.R5, 0, isa.R17)
	b.Li(isa.RRet, int64(capo.SysWrite))
	b.Li(isa.R11, 1)
	b.Mov(isa.R12, isa.R5)
	b.Li(isa.R13, 8)
	b.Syscall()
	b.Label("next")
	b.Addi(isa.R7, isa.R7, 1)
	b.Li(isa.R19, requestsPerThread)
	b.Bne(isa.R7, isa.R19, "serve")

	// Final response and shutdown barrier.
	b.St(isa.R5, 0, isa.R17)
	b.Li(isa.RRet, int64(capo.SysWrite))
	b.Li(isa.R11, 1)
	b.Mov(isa.R12, isa.R5)
	b.Li(isa.R13, 8)
	b.Syscall()
	b.Liu(isa.R9, bar)
	EmitBarrier(b, "rb", isa.R9)
	b.Halt()

	prog := b.Build(lay.Size(), threads, nil)
	prog.Symbols["stats"] = stats
	return prog
}

// SigServer builds a signal-driven server: thread 0 registers a handler
// that counts asynchronous signal deliveries, then every thread runs a
// sustained request loop — SysRead a request, fold it into a shared
// atomic total, SysGetTime, and every 4th iteration SysWrite a response.
// Under a config with SignalPeriodInstrs set, signals interleave with
// the syscall traffic at arbitrary instruction boundaries; without it
// the handler simply never fires and the workload is a plain
// syscall-heavy service loop. Either way the request loop sustains
// input-log and chunk traffic for flight-recorder tails to cut.
func SigServer(requestsPerThread int64, threads int) *isa.Program {
	var lay mem.Layout
	total := lay.AllocWords(1)
	sigCount := lay.AllocWords(1)
	bar := lay.AllocWords(2)

	b := isa.NewBuilder("sigserver")
	b.Bne(RegTID, isa.R0, "wait")
	b.LiLabel(isa.R11, "handler")
	b.Li(isa.RRet, int64(capo.SysSigHandler))
	b.Syscall()
	b.Label("wait")
	b.Liu(isa.R9, bar)
	EmitBarrier(b, "s0", isa.R9)

	b.Liu(isa.R3, total)
	b.Addi(isa.R5, RegStack, 64) // private request buffer
	b.Li(isa.R7, 0)              // iteration counter
	b.Li(isa.R17, 0)             // response accumulator

	b.Label("serve")
	b.Li(isa.RRet, int64(capo.SysRead))
	b.Li(isa.R11, 0)
	b.Mov(isa.R12, isa.R5)
	b.Li(isa.R13, 8)
	b.Syscall()
	b.Ld(isa.R15, isa.R5, 0)
	b.Add(isa.R17, isa.R17, isa.R15)
	b.Fadd(isa.R16, isa.R3, 0, isa.R15) // shared atomic total
	EmitSyscall0(b, capo.SysGetTime)
	b.Andi(isa.R19, isa.R7, 3)
	b.Bne(isa.R19, isa.R0, "next")
	b.St(isa.R5, 0, isa.R17)
	b.Li(isa.RRet, int64(capo.SysWrite))
	b.Li(isa.R11, 1)
	b.Mov(isa.R12, isa.R5)
	b.Li(isa.R13, 8)
	b.Syscall()
	b.Label("next")
	b.Addi(isa.R7, isa.R7, 1)
	b.Li(isa.R19, requestsPerThread)
	b.Bne(isa.R7, isa.R19, "serve")

	EmitBarrier(b, "s1", isa.R9)
	b.Halt()

	b.Label("handler")
	b.Liu(isa.R20, sigCount)
	b.Li(isa.R21, 1)
	b.Fadd(isa.R22, isa.R20, 0, isa.R21)
	b.Li(isa.RRet, int64(capo.SysSigReturn))
	b.Syscall() // sigreturn restores the interrupted frame; no code follows

	prog := b.Build(lay.Size(), threads, nil)
	prog.Symbols["total"] = total
	prog.Symbols["sigcount"] = sigCount
	return prog
}
