package capo

import (
	"encoding/binary"

	"repro/internal/mem"
)

// Syscall numbers.
const (
	// SysExit terminates the calling thread. No arguments.
	SysExit uint64 = 1
	// SysWrite (fd, addr, len) writes len bytes from user memory to fd.
	// Returns len.
	SysWrite uint64 = 2
	// SysRead (fd, addr, len) copies len bytes of external input into
	// user memory at addr. Returns len. The bytes come from the kernel's
	// seeded input stream — the simulation's source of external
	// nondeterminism.
	SysRead uint64 = 3
	// SysGetTime returns the current cycle count perturbed by kernel
	// jitter (nondeterministic from the program's point of view).
	SysGetTime uint64 = 4
	// SysRandom returns 64 bits of kernel entropy.
	SysRandom uint64 = 5
	// SysYield relinquishes the core. Returns 0.
	SysYield uint64 = 6
	// SysFutexWait (addr, expected) blocks until woken if the word at
	// addr equals expected; returns 0 when woken, FutexEAgain when the
	// value differed.
	SysFutexWait uint64 = 7
	// SysFutexWake (addr, n) wakes up to n waiters on addr; returns the
	// number woken.
	SysFutexWake uint64 = 8
	// SysGetTID returns the calling thread's ID.
	SysGetTID uint64 = 9
	// SysSigHandler (pc) registers the program's signal handler entry
	// point (an instruction index). Returns 0.
	SysSigHandler uint64 = 10
	// SysSigReturn ends a signal handler, unmasking further signals for
	// the calling thread. Returns 0. (The machine model performs the
	// unmask; the kernel records the crossing.)
	SysSigReturn uint64 = 12
)

// FutexEAgain is SysFutexWait's "value changed" result.
const FutexEAgain uint64 = 11

// CopyPort gives the kernel cache-coherent access to user memory on the
// calling core, so kernel copies generate the same coherence traffic a
// real kernel's would.
type CopyPort interface {
	Load(addr uint64) uint64
	Store(addr uint64, val uint64)
}

// AppendBytes appends n bytes of user memory, read through the port from
// the aligned address addr, to dst and returns the extended slice (the
// tail of the final word is truncated).
func AppendBytes(dst []byte, port CopyPort, addr, n uint64) []byte {
	for off := uint64(0); off < n; off += 8 {
		w := port.Load(addr + off)
		if n-off >= 8 {
			dst = binary.LittleEndian.AppendUint64(dst, w)
			continue
		}
		for b := uint64(0); off+b < n; b++ {
			dst = append(dst, byte(w>>(8*b)))
		}
	}
	return dst
}

// StoreBytes writes p into user memory through the port, preserving
// neighbouring bytes in a partial final word. Every word is loaded
// before it is stored, whole words too: each port call is a modelled
// cache access, so the call sequence is the copy's cost.
func StoreBytes(port CopyPort, addr uint64, p []byte) {
	off := 0
	for ; off+8 <= len(p); off += 8 {
		port.Load(addr + uint64(off))
		port.Store(addr+uint64(off), binary.LittleEndian.Uint64(p[off:]))
	}
	if off == len(p) {
		return
	}
	wordAddr := addr + uint64(off)
	w := port.Load(wordAddr)
	for b, v := range p[off:] {
		shift := uint(8 * b)
		w = w&^(uint64(0xff)<<shift) | uint64(v)<<shift
	}
	port.Store(wordAddr, w)
}

// Result describes a handled syscall to the machine model.
type Result struct {
	// Ret is the value placed in the result register on completion.
	Ret uint64
	// Block indicates the thread must sleep (futex wait); the syscall
	// completes when the thread is woken.
	Block bool
	// Woken lists thread IDs made runnable by this call. It aliases a
	// kernel-owned buffer and is valid until the next Handle.
	Woken []int
	// Exit indicates the calling thread terminated.
	Exit bool
	// Reschedule hints that the caller yielded the core.
	Reschedule bool
	// CopyAddr/CopyData describe bytes the kernel copied into user
	// memory (input nondeterminism the RSM must log). CopyData is a
	// slice of the kernel's read arena whose capacity equals its length,
	// so appending to it never overwrites another call's payload.
	CopyAddr uint64
	CopyData []byte
	// WordsTouched counts the 64-bit words the kernel moved across the
	// user/kernel boundary, for perf accounting.
	WordsTouched int
}

// Kernel is the simulated operating system: syscall semantics, futex
// wait queues, the external-input entropy stream and captured program
// output. One Kernel serves one machine; all methods are called from the
// machine's single-threaded run loop.
type Kernel struct {
	entropy    uint64 // xorshift64 state: external-world nondeterminism
	memBytes   uint64 // size of user memory, which bounds every copy
	futex      map[uint64][]int
	output     map[int][]byte
	handlerPC  int
	handlerSet bool
	// readArena is the current block SysRead payloads are carved from;
	// its length is the part already handed out.
	readArena []byte
	// woken backs Result.Woken.
	woken []int
}

// readArenaBlock is the size of the blocks SysRead payloads are carved
// from: one allocation serves many reads, and a payload larger than a
// block gets a block of its own.
const readArenaBlock = 64 << 10

// NewKernel returns a kernel whose external inputs (read data, time
// jitter, entropy) derive from seed, serving a user memory of memBytes
// bytes.
func NewKernel(seed, memBytes uint64) *Kernel {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Kernel{
		entropy:  seed,
		memBytes: memBytes,
		futex:    make(map[uint64][]int),
		output:   make(map[int][]byte),
	}
}

func (k *Kernel) rand() uint64 {
	k.entropy ^= k.entropy << 13
	k.entropy ^= k.entropy >> 7
	k.entropy ^= k.entropy << 17
	return k.entropy
}

// Handle executes one syscall for thread tid at cycle time now, touching
// user memory through port. It does not schedule: blocking/waking is
// reported in the Result for the machine to act on. A call the kernel
// cannot serve (an unknown number, or a read or write buffer that is
// unaligned or outside user memory) panics with a mem.Fault.
func (k *Kernel) Handle(tid int, now uint64, sysno, a1, a2, a3 uint64, port CopyPort) Result {
	switch sysno {
	case SysExit:
		return Result{Exit: true}
	case SysWrite:
		fd, addr, n := int(a1), a2, a3
		k.checkCopy(tid, "write", addr, n)
		k.output[fd] = AppendBytes(k.output[fd], port, addr, n)
		return Result{Ret: n, WordsTouched: int((n + 7) / 8)}
	case SysRead:
		_, addr, n := a1, a2, a3
		k.checkCopy(tid, "read", addr, n)
		data := k.readPayload(n)
		for i := range data {
			data[i] = byte(k.rand())
		}
		StoreBytes(port, addr, data)
		return Result{Ret: n, CopyAddr: addr, CopyData: data, WordsTouched: int((n + 7) / 8)}
	case SysGetTime:
		return Result{Ret: now + k.rand()%8}
	case SysRandom:
		return Result{Ret: k.rand()}
	case SysYield:
		return Result{Reschedule: true}
	case SysFutexWait:
		addr, expected := a1, a2
		cur := port.Load(addr)
		if cur != expected {
			return Result{Ret: FutexEAgain, WordsTouched: 1}
		}
		k.futex[addr] = append(k.futex[addr], tid)
		return Result{Block: true, WordsTouched: 1}
	case SysFutexWake:
		// Clamp in uint64 space: a count of -1 (or any count at or
		// above 2^63) wakes every waiter.
		addr, n := a1, a2
		q := k.futex[addr]
		woken := uint64(len(q))
		if n < woken {
			woken = n
		}
		k.woken = append(k.woken[:0], q[:woken]...)
		if woken > 0 {
			// Compact in place so the queue keeps its capacity.
			k.futex[addr] = q[:copy(q, q[woken:])]
		}
		return Result{Ret: woken, Woken: k.woken}
	case SysGetTID:
		return Result{Ret: uint64(tid)}
	case SysSigHandler:
		k.handlerPC = int(a1)
		k.handlerSet = true
		return Result{}
	case SysSigReturn:
		return Result{}
	default:
		panic(mem.Faultf("capo: unknown syscall %d from thread %d", sysno, tid))
	}
}

// checkCopy faults a read or write of n > 0 bytes whose buffer at addr
// is not word-aligned or does not fit in user memory. It runs before the
// kernel allocates or copies anything, so a huge length costs nothing;
// a copy of zero bytes touches no word and never faults.
func (k *Kernel) checkCopy(tid int, call string, addr, n uint64) {
	switch {
	case n == 0:
	case addr%mem.WordSize != 0:
		panic(mem.Faultf("capo: %s from thread %d: unaligned buffer at %#x", call, tid, addr))
	case n > k.memBytes || addr > k.memBytes-n:
		panic(mem.Faultf("capo: %s from thread %d: %d bytes at %#x overrun memory of %d bytes",
			call, tid, n, addr, k.memBytes))
	}
}

// readPayload carves an n-byte SysRead payload from the read arena. The
// payload's capacity equals its length, so no record can grow into its
// neighbour.
func (k *Kernel) readPayload(n uint64) []byte {
	if n > uint64(cap(k.readArena)-len(k.readArena)) {
		k.readArena = make([]byte, 0, max(n, readArenaBlock))
	}
	start := len(k.readArena)
	k.readArena = k.readArena[:start+int(n)]
	return k.readArena[start:len(k.readArena):len(k.readArena)]
}

// Output returns the bytes written to fd so far.
func (k *Kernel) Output(fd int) []byte { return k.output[fd] }

// HandlerPC returns the registered signal handler entry point.
func (k *Kernel) HandlerPC() (pc int, ok bool) { return k.handlerPC, k.handlerSet }

// Waiters returns the number of threads blocked on any futex, for
// deadlock diagnostics.
func (k *Kernel) Waiters() int {
	n := 0
	for _, q := range k.futex {
		n += len(q)
	}
	return n
}
