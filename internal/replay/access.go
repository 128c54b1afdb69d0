package replay

import (
	"fmt"

	"repro/internal/capo"
	"repro/internal/isa"
)

// AccessKind classifies one traced memory access.
type AccessKind uint8

// Access kinds. Plain reads and writes are the data accesses a race can
// involve; atomics and futex operations are synchronization, excluded
// from race reports but feeding the happens-before order.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessAtomic
	AccessFutexWait
	AccessFutexWake
)

// String names the kind.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessAtomic:
		return "atomic"
	case AccessFutexWait:
		return "futex-wait"
	case AccessFutexWake:
		return "futex-wake"
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// IsSync reports whether the access is a synchronization operation
// rather than a plain data access.
func (k AccessKind) IsSync() bool { return k >= AccessAtomic }

// AccessEvent is one user-mode memory access observed during an
// access-traced replay, attributed to the instruction that issued it.
type AccessEvent struct {
	// Thread issued the access; Chunk is the index into that thread's
	// chunk log of the chunk executing (or, for a syscall trap, about to
	// execute) when the access happened.
	Thread int
	Chunk  int
	// PC is the issuing instruction; for futex events it is the trap
	// site.
	PC int
	// Addr is the accessed word address (or the futex word).
	Addr uint64
	// Kind classifies the access.
	Kind AccessKind
}

// rawAccess is one port-level access buffered during a step.
type rawAccess struct {
	addr  uint64
	write bool
}

// tracingPort wraps the replay memory port, buffering each access of the
// in-flight instruction; the replayer drains and attributes the buffer
// after the step completes, when the issuing PC and kind are known.
type tracingPort struct {
	inner flatPort
	buf   *[]rawAccess
}

func (p tracingPort) Load(addr uint64) uint64 {
	*p.buf = append(*p.buf, rawAccess{addr, false})
	return p.inner.Load(addr)
}

func (p tracingPort) Store(addr uint64, val uint64) {
	*p.buf = append(*p.buf, rawAccess{addr, true})
	p.inner.Store(addr, val)
}

func (p tracingPort) RMW(addr uint64, f func(uint64) uint64) uint64 {
	// Port-level RMW backs both atomic instructions and sub-word stores;
	// classification by opcode happens at drain time, so just note a
	// write here.
	*p.buf = append(*p.buf, rawAccess{addr, true})
	return p.inner.RMW(addr, f)
}

// drainAccesses attributes the in-flight step's buffered accesses to the
// issuing (thread, chunk, PC) and classifies them: every access of an
// atomic instruction (XCHG/CAS/FADD) is synchronization, everything else
// is a plain read or write.
func (r *replayer) drainAccesses(t *threadState, pcBefore int) {
	if len(r.accessBuf) == 0 {
		return
	}
	atomic := false
	if pcBefore >= 0 && pcBefore < len(r.in.Prog.Code) {
		switch r.in.Prog.Code[pcBefore].Op {
		case isa.OpXchg, isa.OpCas, isa.OpFadd:
			atomic = true
		}
	}
	for _, a := range r.accessBuf {
		kind := AccessRead
		switch {
		case atomic:
			kind = AccessAtomic
		case a.write:
			kind = AccessWrite
		}
		r.accessSink(AccessEvent{Thread: t.id, Chunk: t.chunksDone, PC: pcBefore, Addr: a.addr, Kind: kind})
	}
	r.accessBuf = r.accessBuf[:0]
}

// noteFutex logs a futex syscall as a synchronization event on its word.
func (r *replayer) noteFutex(t *threadState, sysno, addr uint64) {
	if r.accessSink == nil {
		return
	}
	kind := AccessFutexWait
	if sysno == capo.SysFutexWake {
		kind = AccessFutexWake
	}
	r.accessSink(AccessEvent{Thread: t.id, Chunk: t.chunksDone, PC: t.core.PC(), Addr: addr, Kind: kind})
}

// TraceAccesses replays the recording to completion while passing every
// user-mode memory access to sink, in replay order, with its thread,
// chunk index, PC and classification — the exact-address ground truth
// the race detector's confirmation phase compares Bloom candidates
// against. The trace is streamed, never materialised: sink sees each
// event once, as the issuing step retires. Kernel-side copies (syscall
// result injection, output reads) go through the untraced port and are
// excluded: they are recorded input, not shared-memory communication.
// Futex waits and wakes are logged as synchronization events on the
// futex word.
func TraceAccesses(in Input, sink func(AccessEvent)) (res *Result, err error) {
	defer recoverFault(&err)
	if in.Threads <= 0 || len(in.ChunkLogs) != in.Threads {
		return nil, fmt.Errorf("replay: inconsistent input: %d threads, %d chunk logs",
			in.Threads, len(in.ChunkLogs))
	}
	if in.StackWordsPerThread == 0 {
		in.StackWordsPerThread = 1024
	}
	if s := in.Start; s != nil {
		if s.Mem == nil || len(s.Contexts) != in.Threads || len(s.Exited) != in.Threads {
			return nil, fmt.Errorf("replay: inconsistent checkpoint: %d contexts, %d exit flags for %d threads",
				len(s.Contexts), len(s.Exited), in.Threads)
		}
	}
	r := &replayer{in: in}
	r.accessSink = sink
	r.stepHook = func(t *threadState, pcBefore int, kind isa.StepKind) {
		r.drainAccesses(t, pcBefore)
	}
	r.setup()
	if err := r.loop(); err != nil {
		return nil, err
	}
	return r.finish()
}
