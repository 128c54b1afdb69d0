// Package mem implements the simulated physical memory that backs the
// QuickRec machine model. Memory is byte-addressable but accessed in
// aligned 64-bit words, matching the data-path granularity of the
// simulated cores. It also provides a trivial bump allocator used by
// workloads to lay out shared data segments, and whole-image
// checksumming used by the replayer to validate determinism.
package mem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// WordSize is the access granularity in bytes.
const WordSize = 8

// Memory is a flat, word-aligned physical memory image.
// It is not safe for concurrent use; the simulated machine serializes
// all accesses through the bus model.
type Memory struct {
	words []uint64
	brk   uint64 // bump-allocator frontier (byte address)
}

// New returns a memory of the given size in bytes. Size is rounded up to
// a multiple of the word size.
func New(size uint64) *Memory {
	nwords := (size + WordSize - 1) / WordSize
	return &Memory{words: make([]uint64, nwords)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.words)) * WordSize }

func (m *Memory) index(addr uint64) uint64 {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned access at %#x", addr))
	}
	idx := addr / WordSize
	if idx >= uint64(len(m.words)) {
		panic(fmt.Sprintf("mem: access at %#x beyond size %#x", addr, m.Size()))
	}
	return idx
}

// Valid reports whether addr is an aligned address inside the memory.
func (m *Memory) Valid(addr uint64) bool {
	return addr%WordSize == 0 && addr/WordSize < uint64(len(m.words))
}

// Load reads the aligned 64-bit word at addr.
func (m *Memory) Load(addr uint64) uint64 { return m.words[m.index(addr)] }

// Store writes the aligned 64-bit word at addr.
func (m *Memory) Store(addr uint64, v uint64) { m.words[m.index(addr)] = v }

// span returns the words n > 0 bytes at addr cover, panicking exactly as
// a word-by-word Load or Store would at the first word that is
// unaligned or beyond the memory.
func (m *Memory) span(addr, n uint64) []uint64 {
	idx := m.index(addr)
	need := n / WordSize
	if n%WordSize != 0 {
		need++
	}
	if need > uint64(len(m.words))-idx {
		panic(fmt.Sprintf("mem: access at %#x beyond size %#x", m.Size(), m.Size()))
	}
	return m.words[idx : idx+need]
}

// LoadBytes copies n bytes starting at the aligned address addr into a new
// slice. n need not be word-aligned; the tail of the final word is
// truncated. Used by the kernel model for write(2)-style syscalls and to
// serialize memory images.
func (m *Memory) LoadBytes(addr, n uint64) []byte {
	if n == 0 {
		return []byte{}
	}
	ws := m.span(addr, n)
	out := make([]byte, n)
	full := n / WordSize
	for i, w := range ws[:full] {
		binary.LittleEndian.PutUint64(out[i*WordSize:], w)
	}
	for b := full * WordSize; b < n; b++ {
		out[b] = byte(ws[full] >> (8 * (b % WordSize)))
	}
	return out
}

// StoreBytes writes p starting at the aligned address addr. A partial
// final word is read-modify-written so neighbouring bytes are preserved.
// Used by the kernel model for read(2)-style copy_to_user and to restore
// memory images.
func (m *Memory) StoreBytes(addr uint64, p []byte) {
	if len(p) == 0 {
		return
	}
	ws := m.span(addr, uint64(len(p)))
	full := len(p) / WordSize
	for i := range ws[:full] {
		ws[i] = binary.LittleEndian.Uint64(p[i*WordSize:])
	}
	for b := full * WordSize; b < len(p); b++ {
		shift := uint(8 * (b % WordSize))
		ws[full] = ws[full]&^(uint64(0xff)<<shift) | uint64(p[b])<<shift
	}
}

// Alloc reserves n bytes (rounded up to a whole number of cache-line-sized
// 64-byte blocks so distinct allocations never share a line unless asked)
// and returns the base address. Allocation never fails until memory is
// exhausted, in which case it panics: workloads size their own footprints.
func (m *Memory) Alloc(n uint64) uint64 {
	const lineSize = 64
	base := (m.brk + lineSize - 1) &^ (lineSize - 1)
	end := base + ((n + lineSize - 1) &^ (lineSize - 1))
	if end > m.Size() {
		panic(fmt.Sprintf("mem: out of memory allocating %d bytes (brk %#x, size %#x)", n, m.brk, m.Size()))
	}
	m.brk = end
	return base
}

// AllocWords reserves n 64-bit words and returns the base address.
func (m *Memory) AllocWords(n uint64) uint64 { return m.Alloc(n * WordSize) }

// Brk returns the current allocation frontier.
func (m *Memory) Brk() uint64 { return m.brk }

// Reserve advances the allocation frontier to at least n bytes, marking
// the region [0, n) as owned by a build-time Layout so later Allocs
// (per-thread stacks, for example) don't overlap it.
func (m *Memory) Reserve(n uint64) {
	if n > m.Size() {
		panic(fmt.Sprintf("mem: reserving %d bytes beyond size %d", n, m.Size()))
	}
	if n > m.brk {
		m.brk = n
	}
}

// Layout plans data-segment addresses at program-build time, before any
// Memory exists, using the same cache-line-granular bump allocation as
// Memory.Alloc. Programs compute their symbol addresses with a Layout,
// embed them as immediates, and reserve Size() bytes at run time.
type Layout struct {
	brk uint64
}

// Alloc reserves n bytes (line-granular) and returns the base address.
func (l *Layout) Alloc(n uint64) uint64 {
	const lineSize = 64
	base := (l.brk + lineSize - 1) &^ (lineSize - 1)
	l.brk = base + ((n + lineSize - 1) &^ (lineSize - 1))
	return base
}

// AllocWords reserves n 64-bit words.
func (l *Layout) AllocWords(n uint64) uint64 { return l.Alloc(n * WordSize) }

// Size returns the total bytes the layout spans.
func (l *Layout) Size() uint64 { return l.brk }

// Checksum returns an FNV-1a hash over the full memory image. Two memories
// with identical contents produce identical checksums; the replayer uses
// this to validate that replay converged to the recorded final state.
func (m *Memory) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range m.words {
		buf[0] = byte(w)
		buf[1] = byte(w >> 8)
		buf[2] = byte(w >> 16)
		buf[3] = byte(w >> 24)
		buf[4] = byte(w >> 32)
		buf[5] = byte(w >> 40)
		buf[6] = byte(w >> 48)
		buf[7] = byte(w >> 56)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Snapshot returns a deep copy of the memory image (including the
// allocator frontier).
func (m *Memory) Snapshot() *Memory {
	cp := &Memory{words: make([]uint64, len(m.words)), brk: m.brk}
	copy(cp.words, m.words)
	return cp
}

// Equal reports whether two memories hold identical contents.
func (m *Memory) Equal(other *Memory) bool {
	if len(m.words) != len(other.words) {
		return false
	}
	for i, w := range m.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}
