package workload

import (
	"fmt"

	"repro/internal/capo"
	"repro/internal/isa"
	"repro/internal/mem"
)

// RandomProgram generates a terminating SPMD program from a seed: a
// bounded outer loop whose body mixes register arithmetic, shared and
// private memory traffic, atomics, REP string bursts, futex-locked
// critical sections, barriers and syscalls. Every thread runs the same
// code, so barriers always match up, and all addresses are masked into
// valid regions, so any generated program runs to completion.
//
// This is the soundness fuzzer's substrate: curated kernels exercise
// known sharing patterns, while random programs explore the interaction
// space (a REP split inside a critical section two instructions after a
// signal-prone barrier, and so on). The record→replay→verify contract
// must hold for all of them.
func RandomProgram(seed uint64, threads int) *isa.Program {
	g := &progGen{rng: seed*0x9e3779b97f4a7c15 + 1}

	const (
		sharedWords  = 256 // 32 lines of shared data
		privateWords = 128
		outerIters   = 8
	)
	var lay mem.Layout
	shared := lay.AllocWords(sharedWords)
	privates := make([]uint64, threads)
	for t := range privates {
		privates[t] = lay.AllocWords(privateWords)
	}
	stride := uint64(0)
	if threads > 1 {
		stride = privates[1] - privates[0]
	}
	lock := lay.AllocWords(1)
	bar := lay.AllocWords(2)
	repBuf := lay.AllocWords(64)

	b := isa.NewBuilder(fmt.Sprintf("fuzz-%d", seed))
	// R3 = &shared, R4 = &private[tid], R5 = &lock, R6 = loop counter.
	b.Liu(isa.R3, shared)
	b.Liu(isa.R4, stride)
	b.Mul(isa.R4, RegTID, isa.R4)
	b.Liu(isa.R5, privates[0])
	b.Add(isa.R4, isa.R4, isa.R5)
	b.Liu(isa.R5, lock)
	b.Li(isa.R6, 0)
	// Seed working registers with thread-dependent values.
	b.Addi(isa.R7, RegTID, 1)
	b.Liu(isa.R8, seed|1)
	b.Li(isa.R9, 0)

	b.Label("outer")
	nOps := 16 + int(g.next()%24)
	for i := 0; i < nOps; i++ {
		g.emitOp(b, i, repBuf, bar)
	}
	b.Addi(isa.R6, isa.R6, 1)
	b.Li(isa.R15, outerIters)
	b.Bne(isa.R6, isa.R15, "outer")
	// Every thread writes its accumulator so divergence is state-visible.
	b.St(isa.R4, 0, isa.R7)
	b.St(isa.R4, 8, isa.R8)
	b.Liu(isa.R9, bar)
	EmitBarrier(b, "fz", isa.R9)
	b.Halt()

	init := func(m *mem.Memory) {
		for i := uint64(0); i < sharedWords; i++ {
			m.Store(shared+i*8, i*11+seed)
		}
	}
	prog := b.Build(lay.Size(), threads, init)
	prog.Symbols["shared"] = shared
	return prog
}

// progGen drives generation with an xorshift stream.
type progGen struct {
	rng uint64
}

func (g *progGen) next() uint64 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 7
	g.rng ^= g.rng << 17
	return g.rng
}

// sharedOff returns a random word offset within the shared region.
func (g *progGen) sharedOff() int64 { return int64(g.next()%256) * 8 }

// privateOff returns a random word offset within the private region.
func (g *progGen) privateOff() int64 { return int64(g.next()%128) * 8 }

// emitOp appends one random operation. idx uniquifies label prefixes.
func (g *progGen) emitOp(b *isa.Builder, idx int, repBuf, bar uint64) {
	pfx := fmt.Sprintf("op%d_%d", idx, g.next()%1000)
	switch g.next() % 17 {
	case 0, 1, 2: // register arithmetic
		switch g.next() % 4 {
		case 0:
			b.Add(isa.R7, isa.R7, isa.R8)
		case 1:
			b.Muli(isa.R8, isa.R8, 0x9E3779B1)
		case 2:
			b.Shri(isa.R9, isa.R8, int64(1+g.next()%31))
			b.Xor(isa.R8, isa.R8, isa.R9)
		case 3:
			b.Sub(isa.R7, isa.R7, isa.R9)
		}
	case 3, 4: // shared load
		b.Ld(isa.R9, isa.R3, g.sharedOff())
		b.Add(isa.R7, isa.R7, isa.R9)
	case 5, 6: // shared store
		b.St(isa.R3, g.sharedOff(), isa.R7)
	case 7: // private traffic
		b.St(isa.R4, g.privateOff(), isa.R8)
		b.Ld(isa.R9, isa.R4, g.privateOff())
	case 8: // atomic on shared
		switch g.next() % 3 {
		case 0:
			b.Fadd(isa.R9, isa.R3, g.sharedOff(), isa.R7)
		case 1:
			b.Xchg(isa.R9, isa.R3, g.sharedOff(), isa.R8)
		case 2:
			b.Cas(isa.R9, isa.R3, g.sharedOff(), isa.R7, isa.R8)
		}
	case 9: // locked critical section over a fixed shared word
		EmitFutexLock(b, pfx, isa.R5)
		b.Ld(isa.R9, isa.R3, 0)
		b.Add(isa.R9, isa.R9, isa.R7)
		b.St(isa.R3, 0, isa.R9)
		EmitFutexUnlock(b, pfx, isa.R5)
	case 10: // barrier (all threads run the same code, so it matches up)
		b.Liu(isa.R9, bar)
		EmitBarrier(b, pfx, isa.R9)
	case 11: // REP burst into the scratch region
		b.Liu(isa.R15, repBuf)
		b.Mov(isa.R16, isa.R8)
		b.Li(isa.R17, int64(1+g.next()%48))
		b.RepStos(isa.R15, isa.R16, isa.R17)
	case 12: // REP copy shared -> scratch
		b.Liu(isa.R15, repBuf)
		b.Mov(isa.R16, isa.R3)
		b.Li(isa.R17, int64(1+g.next()%32))
		b.RepMovs(isa.R15, isa.R16, isa.R17)
	case 13: // nondeterministic input syscall
		switch g.next() % 3 {
		case 0:
			b.Li(isa.RRet, int64(capo.SysRandom))
		case 1:
			b.Li(isa.RRet, int64(capo.SysGetTime))
		default:
			b.Li(isa.RRet, int64(capo.SysGetTID))
		}
		b.Syscall()
		b.Add(isa.R8, isa.R8, isa.RRet)
	case 14: // read external data into the private region
		b.Li(isa.RRet, int64(capo.SysRead))
		b.Li(isa.R11, 0)
		b.Mov(isa.R12, isa.R4)
		b.Li(isa.R13, int64(8*(1+g.next()%8)))
		b.Syscall()
	case 16: // byte-granular traffic on shared words
		b.Lbu(isa.R9, isa.R3, g.sharedOff()+int64(g.next()%8))
		b.Add(isa.R7, isa.R7, isa.R9)
		b.Sb(isa.R3, g.sharedOff()+int64(g.next()%8), isa.R8)
	case 15: // write from the shared region
		b.Li(isa.RRet, int64(capo.SysWrite))
		b.Li(isa.R11, 1)
		b.Mov(isa.R12, isa.R3)
		b.Li(isa.R13, int64(8*(1+g.next()%4)))
		b.Syscall()
	}
}
