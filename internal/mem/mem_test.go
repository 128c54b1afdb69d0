package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestLoadStore(t *testing.T) {
	m := New(1024)
	m.Store(0, 42)
	m.Store(8, 0xdeadbeef)
	m.Store(1016, ^uint64(0))
	if got := m.Load(0); got != 42 {
		t.Errorf("Load(0) = %d, want 42", got)
	}
	if got := m.Load(8); got != 0xdeadbeef {
		t.Errorf("Load(8) = %#x, want 0xdeadbeef", got)
	}
	if got := m.Load(1016); got != ^uint64(0) {
		t.Errorf("Load(1016) = %#x, want all-ones", got)
	}
	if got := m.Load(16); got != 0 {
		t.Errorf("untouched word = %d, want 0", got)
	}
}

func TestSizeRounding(t *testing.T) {
	m := New(9)
	if m.Size() != 16 {
		t.Errorf("Size = %d, want 16 (rounded to words)", m.Size())
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	m.Load(3)
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	m.Store(64, 1)
}

func TestValid(t *testing.T) {
	m := New(64)
	cases := []struct {
		addr uint64
		want bool
	}{
		{0, true}, {8, true}, {56, true}, {64, false}, {3, false}, {1 << 40, false},
	}
	for _, c := range cases {
		if got := m.Valid(c.addr); got != c.want {
			t.Errorf("Valid(%d) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	m := New(256)
	data := []byte("hello, quickrec world! 0123456789")
	m.StoreBytes(8, data)
	got := m.LoadBytes(8, uint64(len(data)))
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: got %q, want %q", got, data)
	}
}

func TestStoreBytesPreservesNeighbours(t *testing.T) {
	m := New(64)
	m.Store(0, 0x1122334455667788)
	m.StoreBytes(0, []byte{0xaa, 0xbb}) // overwrite low two bytes only
	if got := m.Load(0); got != 0x112233445566bbaa {
		t.Errorf("Load = %#x, want 0x112233445566bbaa", got)
	}
}

func TestBytesProperty(t *testing.T) {
	f := func(data []byte, offWords uint8) bool {
		if len(data) > 512 {
			data = data[:512]
		}
		m := New(2048)
		addr := uint64(offWords%16) * WordSize
		m.StoreBytes(addr, data)
		return bytes.Equal(m.LoadBytes(addr, uint64(len(data))), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocSeparatesLines(t *testing.T) {
	m := New(4096)
	a := m.Alloc(1)
	b := m.Alloc(1)
	if a/64 == b/64 {
		t.Errorf("allocations share a cache line: %#x %#x", a, b)
	}
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not line-aligned: %#x %#x", a, b)
	}
}

func TestAllocWords(t *testing.T) {
	m := New(4096)
	a := m.AllocWords(8) // exactly one line
	b := m.AllocWords(1)
	if b-a != 64 {
		t.Errorf("expected next line after 8-word alloc, got gap %d", b-a)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(128)
	defer func() {
		if recover() == nil {
			t.Error("alloc beyond size did not panic")
		}
	}()
	m.Alloc(4096)
}

func TestChecksumDetectsChanges(t *testing.T) {
	m := New(1024)
	m.Store(64, 7)
	c1 := m.Checksum()
	m.Store(64, 8)
	c2 := m.Checksum()
	if c1 == c2 {
		t.Error("checksum unchanged after store")
	}
	m.Store(64, 7)
	if m.Checksum() != c1 {
		t.Error("checksum not restored with contents")
	}
}

func TestSnapshotAndEqual(t *testing.T) {
	m := New(512)
	m.Alloc(100)
	m.Store(0, 1)
	m.Store(128, 99)
	snap := m.Snapshot()
	if !m.Equal(snap) {
		t.Fatal("snapshot differs from original")
	}
	if snap.Brk() != m.Brk() {
		t.Errorf("snapshot brk = %d, want %d", snap.Brk(), m.Brk())
	}
	m.Store(0, 2)
	if m.Equal(snap) {
		t.Error("snapshot tracked mutation of original")
	}
	if snap.Load(0) != 1 {
		t.Error("snapshot contents changed")
	}
	other := New(256)
	if m.Equal(other) {
		t.Error("memories of different sizes reported equal")
	}
}

// refLoadBytes and refStoreBytes are the byte-at-a-time reference
// implementations the word-at-a-time copies must match.
func refLoadBytes(m *Memory, addr, n uint64) []byte {
	out := make([]byte, 0, n)
	for off := uint64(0); off < n; off += WordSize {
		w := m.Load(addr + off)
		for b := uint64(0); b < WordSize && off+b < n; b++ {
			out = append(out, byte(w>>(8*b)))
		}
	}
	return out
}

func refStoreBytes(m *Memory, addr uint64, p []byte) {
	for off := 0; off < len(p); off += WordSize {
		wordAddr := addr + uint64(off)
		w := m.Load(wordAddr)
		for b := 0; b < WordSize && off+b < len(p); b++ {
			shift := uint(8 * b)
			w &^= uint64(0xff) << shift
			w |= uint64(p[off+b]) << shift
		}
		m.Store(wordAddr, w)
	}
}

// patterned returns a memory whose every byte is distinct from its
// neighbours, so a copy that clobbers or misplaces a byte shows.
func patterned(size uint64) *Memory {
	m := New(size)
	for a := uint64(0); a < size; a += WordSize {
		m.Store(a, 0x0101010101010101*(a/WordSize+1)+0x0706050403020100)
	}
	return m
}

func TestBytesMatchByteLoop(t *testing.T) {
	const size = 256
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(0xa0 + i)
	}
	for _, addr := range []uint64{0, 8, 24, 128, size - 72} {
		for n := 0; n <= 64; n++ {
			got, want := patterned(size), patterned(size)
			if g, w := got.LoadBytes(addr, uint64(n)), refLoadBytes(want, addr, uint64(n)); !bytes.Equal(g, w) {
				t.Fatalf("LoadBytes(%d, %d) = %x, want %x", addr, n, g, w)
			}
			got.StoreBytes(addr, data[:n])
			refStoreBytes(want, addr, data[:n])
			if !got.Equal(want) {
				t.Fatalf("StoreBytes(%d, %d bytes) image differs from the byte loop", addr, n)
			}
		}
	}
}

// panicMsg runs f and returns what it panicked with, or nil.
func panicMsg(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

func TestBytesPanicLikeByteLoop(t *testing.T) {
	cases := []struct {
		name string
		addr uint64
		n    int
	}{
		{"unaligned", 3, 5},
		{"start beyond size", 64, 1},
		{"far beyond size", 1 << 40, 8},
		{"runs past end", 56, 9},
		{"ends in last word", 56, 8},
		{"empty at bad address", 3, 0},
	}
	for _, c := range cases {
		m := New(64)
		p := make([]byte, c.n)
		load, refLoad := panicMsg(func() { m.LoadBytes(c.addr, uint64(c.n)) }), panicMsg(func() { refLoadBytes(m, c.addr, uint64(c.n)) })
		if load != refLoad {
			t.Errorf("%s: LoadBytes panics %v, byte loop %v", c.name, load, refLoad)
		}
		store, refStore := panicMsg(func() { m.StoreBytes(c.addr, p) }), panicMsg(func() { refStoreBytes(m, c.addr, p) })
		if store != refStore {
			t.Errorf("%s: StoreBytes panics %v, byte loop %v", c.name, store, refStore)
		}
	}
	if panicMsg(func() { New(64).LoadBytes(3, 5) }) == nil {
		t.Error("unaligned LoadBytes did not panic")
	}
	if panicMsg(func() { New(64).StoreBytes(56, make([]byte, 9)) }) == nil {
		t.Error("StoreBytes past the end did not panic")
	}
}

// BenchmarkMemoryImage round-trips a 1 MiB image through LoadBytes and
// StoreBytes, the path checkpoint images and remote replay results take.
func BenchmarkMemoryImage(b *testing.B) {
	const size = 1 << 20
	m := patterned(size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StoreBytes(0, m.LoadBytes(0, size))
	}
}
