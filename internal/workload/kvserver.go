package workload

import (
	"repro/internal/capo"
	"repro/internal/isa"
	"repro/internal/mem"
)

// KVServer builds an application-style workload: worker threads service
// externally supplied requests against a shared, bucket-locked key-value
// table — the "always-on production service" scenario QuickRec is meant
// to record. Each request arrives via SysRead (24 bytes of external
// nondeterminism: key, op, value), so the input log carries the entire
// request stream and replay reproduces the service's exact behaviour.
func KVServer(requestsPerThread int64, buckets uint64, threads int) *isa.Program {
	var lay mem.Layout
	// One cache line per bucket: [lock, count, sum, ...].
	table := lay.AllocWords(buckets * 8)
	bar := lay.AllocWords(2)

	b := isa.NewBuilder("kvserver")
	b.Liu(isa.R3, table)
	b.Liu(isa.R30, buckets)
	b.Li(isa.R4, 0)              // request index
	b.Li(isa.R17, 0)             // GET accumulator
	b.Addi(isa.R5, RegStack, 64) // private request buffer

	b.Label("serve")
	// Receive one request: key, op, value (external input).
	b.Li(isa.RRet, int64(capo.SysRead))
	b.Li(isa.R11, 0)
	b.Mov(isa.R12, isa.R5)
	b.Li(isa.R13, 24)
	b.Syscall()
	b.Ld(isa.R7, isa.R5, 0)  // key
	b.Ld(isa.R8, isa.R5, 8)  // op
	b.Ld(isa.R9, isa.R5, 16) // value
	b.Rem(isa.R7, isa.R7, isa.R30)
	b.Muli(isa.R7, isa.R7, 64)
	b.Add(isa.R7, isa.R3, isa.R7) // bucket base (lock word)
	b.Andi(isa.R8, isa.R8, 1)

	EmitFutexLock(b, "kv", isa.R7)
	b.Bne(isa.R8, isa.R0, "get")
	// PUT: count++; sum += value.
	b.Ld(isa.R15, isa.R7, 8)
	b.Addi(isa.R15, isa.R15, 1)
	b.St(isa.R7, 8, isa.R15)
	b.Ld(isa.R16, isa.R7, 16)
	b.Add(isa.R16, isa.R16, isa.R9)
	b.St(isa.R7, 16, isa.R16)
	b.Jmp("reqdone")
	b.Label("get")
	// GET: fold the bucket's sum into the private accumulator.
	b.Ld(isa.R16, isa.R7, 16)
	b.Add(isa.R17, isa.R17, isa.R16)
	b.Label("reqdone")
	EmitFutexUnlock(b, "kv", isa.R7)

	b.Addi(isa.R4, isa.R4, 1)
	b.Li(isa.R15, requestsPerThread)
	b.Bne(isa.R4, isa.R15, "serve")

	// Respond: write the accumulator to fd 1.
	b.St(RegStack, 0, isa.R17)
	b.Li(isa.RRet, int64(capo.SysWrite))
	b.Li(isa.R11, 1)
	b.Mov(isa.R12, RegStack)
	b.Li(isa.R13, 8)
	b.Syscall()
	b.Liu(isa.R9, bar)
	EmitBarrier(b, "kb", isa.R9)
	b.Halt()

	prog := b.Build(lay.Size(), threads, nil)
	prog.Symbols["table"] = table
	return prog
}
