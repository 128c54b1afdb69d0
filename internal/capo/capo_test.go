package capo

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chunk"
	"repro/internal/mem"
)

// memPort adapts mem.Memory to CopyPort.
type memPort struct{ m *mem.Memory }

func (p memPort) Load(addr uint64) uint64 { return p.m.Load(addr) }
func (p memPort) Store(addr, val uint64)  { p.m.Store(addr, val) }

func TestByteHelpersRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		m := mem.New(1024)
		p := memPort{m}
		StoreBytes(p, 64, data)
		return bytes.Equal(AppendBytes(nil, p, 64, uint64(len(data))), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// logPort is a CopyPort over memory that logs every call it serves.
type logPort struct {
	m   *mem.Memory
	log []string
}

func (p *logPort) Load(addr uint64) uint64 {
	v := p.m.Load(addr)
	p.log = append(p.log, fmt.Sprintf("load %#x = %#x", addr, v))
	return v
}

func (p *logPort) Store(addr, val uint64) {
	p.log = append(p.log, fmt.Sprintf("store %#x = %#x", addr, val))
	p.m.Store(addr, val)
}

// refStoreBytes is StoreBytes as a byte loop: it merges every byte of p
// into its loaded word.
func refStoreBytes(port CopyPort, addr uint64, p []byte) {
	for off := 0; off < len(p); off += 8 {
		wordAddr := addr + uint64(off)
		w := port.Load(wordAddr)
		for b := 0; b < 8 && off+b < len(p); b++ {
			shift := uint(8 * b)
			w &^= uint64(0xff) << shift
			w |= uint64(p[off+b]) << shift
		}
		port.Store(wordAddr, w)
	}
}

// TestStoreBytesMatchesByteLoop holds StoreBytes to the byte loop's
// port calls, in order, and to its final memory: each call is a
// modelled cache access, so storing whole words must not change the
// sequence.
func TestStoreBytesMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	image := make([]byte, 1024)
	for n := 0; n <= 40; n++ {
		for _, addr := range []uint64{0, 8, 64, 120, 512} {
			rng.Read(image)
			data := make([]byte, n)
			rng.Read(data)
			got, want := &logPort{m: mem.New(1024)}, &logPort{m: mem.New(1024)}
			got.m.StoreBytes(0, image)
			want.m.StoreBytes(0, image)
			StoreBytes(got, addr, data)
			refStoreBytes(want, addr, data)
			if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
				t.Fatalf("len %d at %#x: port calls\n%v\nwant\n%v", n, addr, got.log, want.log)
			}
			if !bytes.Equal(got.m.AppendBytes(nil, 0, 1024), want.m.AppendBytes(nil, 0, 1024)) {
				t.Fatalf("len %d at %#x: memory differs from the byte loop's", n, addr)
			}
		}
	}
}

func TestKernelWriteCapturesOutput(t *testing.T) {
	k := NewKernel(1, 1024)
	m := mem.New(1024)
	m.StoreBytes(128, []byte("hello"))
	res := k.Handle(0, 0, SysWrite, 1, 128, 5, memPort{m})
	if res.Ret != 5 || res.Exit || res.Block {
		t.Errorf("write result = %+v", res)
	}
	if got := k.Output(1); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("output = %q, want hello", got)
	}
	// Second write appends.
	k.Handle(0, 0, SysWrite, 1, 128, 2, memPort{m})
	if got := k.Output(1); string(got) != "hellohe" {
		t.Errorf("output = %q, want hellohe", got)
	}
}

func TestKernelReadDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []byte {
		k := NewKernel(seed, 1024)
		m := mem.New(1024)
		res := k.Handle(0, 0, SysRead, 0, 64, 32, memPort{m})
		if res.Ret != 32 || res.CopyAddr != 64 || len(res.CopyData) != 32 {
			t.Fatalf("read result = %+v", res)
		}
		if !bytes.Equal(m.AppendBytes(nil, 64, 32), res.CopyData) {
			t.Fatal("memory does not hold the copied data")
		}
		return res.CopyData
	}
	a, b, c := run(7), run(7), run(8)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different input data")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical input data")
	}
}

func TestFutexWaitWake(t *testing.T) {
	k := NewKernel(1, 1024)
	m := mem.New(1024)
	m.Store(256, 1)
	p := memPort{m}

	// Value mismatch: EAGAIN, no block.
	res := k.Handle(0, 0, SysFutexWait, 256, 0, 0, p)
	if res.Block || res.Ret != FutexEAgain {
		t.Fatalf("mismatched wait = %+v", res)
	}

	// Matching wait blocks.
	res = k.Handle(0, 0, SysFutexWait, 256, 1, 0, p)
	if !res.Block {
		t.Fatalf("matching wait = %+v, want Block", res)
	}
	res = k.Handle(1, 0, SysFutexWait, 256, 1, 0, p)
	if !res.Block {
		t.Fatal("second waiter did not block")
	}
	if k.Waiters() != 2 {
		t.Fatalf("Waiters = %d, want 2", k.Waiters())
	}

	// Wake one: FIFO order.
	res = k.Handle(2, 0, SysFutexWake, 256, 1, 0, p)
	if res.Ret != 1 || len(res.Woken) != 1 || res.Woken[0] != 0 {
		t.Fatalf("wake result = %+v, want woken=[0]", res)
	}
	// Wake many: only one left.
	res = k.Handle(2, 0, SysFutexWake, 256, 10, 0, p)
	if res.Ret != 1 || len(res.Woken) != 1 || res.Woken[0] != 1 {
		t.Fatalf("second wake = %+v, want woken=[1]", res)
	}
	if k.Waiters() != 0 {
		t.Fatalf("Waiters = %d, want 0", k.Waiters())
	}
	// Wake with no waiters.
	res = k.Handle(2, 0, SysFutexWake, 256, 1, 0, p)
	if res.Ret != 0 {
		t.Fatalf("empty wake ret = %d, want 0", res.Ret)
	}
}

// TestFutexWakeAllCount pins the uint64 clamp: a count of -1 (any count
// at or above 2^63) wakes every waiter instead of going negative.
func TestFutexWakeAllCount(t *testing.T) {
	k := NewKernel(1, 1024)
	m := mem.New(1024)
	m.Store(256, 1)
	p := memPort{m}
	if res := k.Handle(2, 0, SysFutexWake, 256, ^uint64(0), 0, p); res.Ret != 0 || len(res.Woken) != 0 {
		t.Fatalf("wake-all with no waiters = %+v, want none woken", res)
	}
	for tid := 0; tid < 2; tid++ {
		if res := k.Handle(tid, 0, SysFutexWait, 256, 1, 0, p); !res.Block {
			t.Fatalf("waiter %d did not block", tid)
		}
	}
	res := k.Handle(2, 0, SysFutexWake, 256, ^uint64(0), 0, p)
	if res.Ret != 2 || len(res.Woken) != 2 || res.Woken[0] != 0 || res.Woken[1] != 1 {
		t.Fatalf("wake-all = %+v, want woken=[0 1]", res)
	}
	if k.Waiters() != 0 {
		t.Errorf("Waiters = %d, want 0", k.Waiters())
	}
}

// TestReadPayloadsDoNotAlias checks the read arena's capacity limit:
// appending to one SysRead payload leaves the next one's bytes intact.
func TestReadPayloadsDoNotAlias(t *testing.T) {
	k := NewKernel(3, 1024)
	p := memPort{mem.New(1024)}
	first := k.Handle(0, 0, SysRead, 0, 64, 24, p).CopyData
	second := k.Handle(0, 0, SysRead, 0, 128, 24, p).CopyData
	if cap(first) != len(first) || cap(second) != len(second) {
		t.Fatalf("payload capacities %d/%d exceed lengths %d/%d", cap(first), cap(second), len(first), len(second))
	}
	want := append([]byte(nil), second...)
	_ = append(first, bytes.Repeat([]byte{0xee}, 24)...)
	if !bytes.Equal(second, want) {
		t.Errorf("appending to the first payload changed the second: %x, want %x", second, want)
	}
}

func TestMiscSyscalls(t *testing.T) {
	k := NewKernel(5, 64)
	p := memPort{mem.New(64)}
	if res := k.Handle(3, 0, SysGetTID, 0, 0, 0, p); res.Ret != 3 {
		t.Errorf("gettid = %d, want 3", res.Ret)
	}
	if res := k.Handle(0, 1000, SysGetTime, 0, 0, 0, p); res.Ret < 1000 || res.Ret >= 1008 {
		t.Errorf("gettime = %d, want 1000..1007", res.Ret)
	}
	if res := k.Handle(0, 0, SysYield, 0, 0, 0, p); !res.Reschedule {
		t.Error("yield did not request reschedule")
	}
	if res := k.Handle(0, 0, SysExit, 0, 0, 0, p); !res.Exit {
		t.Error("exit did not exit")
	}
	r1 := k.Handle(0, 0, SysRandom, 0, 0, 0, p).Ret
	r2 := k.Handle(0, 0, SysRandom, 0, 0, 0, p).Ret
	if r1 == r2 {
		t.Error("consecutive SysRandom returned identical values")
	}
	if _, ok := k.HandlerPC(); ok {
		t.Error("handler registered before SysSigHandler")
	}
	k.Handle(0, 0, SysSigHandler, 42, 0, 0, p)
	if pc, ok := k.HandlerPC(); !ok || pc != 42 {
		t.Errorf("handler = %d,%v, want 42,true", pc, ok)
	}
}

func TestUnknownSyscallPanics(t *testing.T) {
	k := NewKernel(1, 64)
	defer func() {
		if _, ok := recover().(mem.Fault); !ok {
			t.Error("unknown syscall did not fault")
		}
	}()
	k.Handle(0, 0, 999, 0, 0, 0, memPort{mem.New(64)})
}

// TestKernelCopyFaults pins the kernel's copy contract: a read or write
// of n > 0 bytes faults when its buffer is unaligned or does not fit in
// user memory, before any payload is allocated; zero bytes never fault.
func TestKernelCopyFaults(t *testing.T) {
	const size = 1024
	faults := func(sysno, addr, n uint64) (faulted bool) {
		k := NewKernel(1, size)
		defer func() {
			r := recover()
			if r != nil {
				if _, ok := r.(mem.Fault); !ok {
					panic(r)
				}
			}
			faulted = r != nil
			if faulted && len(k.readArena) != 0 {
				t.Errorf("sysno %d: faulting call allocated a %d-byte payload", sysno, len(k.readArena))
			}
		}()
		k.Handle(0, 0, sysno, 1, addr, n, memPort{mem.New(size)})
		return false
	}
	for _, sysno := range []uint64{SysRead, SysWrite} {
		for _, c := range []struct {
			addr, n uint64
			want    bool
		}{
			{64, 8, false},
			{size - 8, 8, false},
			{0, size, false},
			{3, 0, false},
			{size + 64, 0, false},
			{3, 8, true},
			{68, 2, true},
			{size - 8, 9, true},
			{0, size + 1, true},
			{8, 1 << 62, true},
			{size, 8, true},
			{^uint64(0) &^ 7, 16, true},
		} {
			if got := faults(sysno, c.addr, c.n); got != c.want {
				t.Errorf("sysno %d at %#x, %d bytes: faulted %v, want %v", sysno, c.addr, c.n, got, c.want)
			}
		}
	}
}

func TestInputLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := &InputLog{}
	for i := 0; i < 300; i++ {
		if rng.Intn(4) == 0 {
			l.Append(Record{
				Kind: KindSignal, Thread: rng.Intn(4), Seq: i, TS: uint64(i * 3),
				Signo: uint64(rng.Intn(32)), Retired: rng.Uint64() % (1 << 30), RepDone: uint64(rng.Intn(100)),
			})
		} else {
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			l.Append(Record{
				Kind: KindSyscall, Thread: rng.Intn(4), Seq: i, TS: uint64(i * 3),
				Sysno: uint64(1 + rng.Intn(10)), Ret: rng.Uint64() % 1000,
				Addr: uint64(rng.Intn(1 << 20)), Data: data,
			})
		}
	}
	got, err := UnmarshalInputLog(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), l.Len())
	}
	for i := range l.Records {
		a, b := l.Records[i], got.Records[i]
		if a.Kind != b.Kind || a.Thread != b.Thread || a.Seq != b.Seq || a.TS != b.TS ||
			a.Sysno != b.Sysno || a.Ret != b.Ret || a.Addr != b.Addr ||
			a.Signo != b.Signo || a.Retired != b.Retired || a.RepDone != b.RepDone ||
			!bytes.Equal(a.Data, b.Data) {
			t.Fatalf("record %d: %v != %v", i, b, a)
		}
	}
}

func TestInputLogRejectsGarbage(t *testing.T) {
	good := (&InputLog{Records: []Record{{Kind: KindSyscall, Sysno: 1}}}).Marshal()
	cases := [][]byte{
		nil,
		[]byte("QRIL"),
		[]byte("XXXX\x01\x00"),
		[]byte("QRIL\x09\x00"),
		good[:len(good)-1],
		append(append([]byte{}, good...), 0x00),
	}
	for i, c := range cases {
		if _, err := UnmarshalInputLog(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Unknown record kind.
	bad := []byte("QRIL\x01\x01\x07\x00\x00\x00")
	if _, err := UnmarshalInputLog(bad); err == nil {
		t.Error("unknown record kind accepted")
	}
}

func TestInputLogAccessors(t *testing.T) {
	l := &InputLog{}
	l.Append(Record{Kind: KindSyscall, Thread: 0, Data: []byte{1, 2, 3}})
	l.Append(Record{Kind: KindSyscall, Thread: 1, Data: []byte{4}})
	l.Append(Record{Kind: KindSignal, Thread: 0})
	if got := len(l.PerThread(0)); got != 2 {
		t.Errorf("PerThread(0) = %d records, want 2", got)
	}
	if got := l.DataBytes(); got != 4 {
		t.Errorf("DataBytes = %d, want 4", got)
	}
	if l.EncodedSize() <= 0 {
		t.Error("EncodedSize not positive")
	}
}

func TestSessionChunkSinkAndFlushes(t *testing.T) {
	flushes := map[FlushKind]int{}
	s := NewSession(SessionConfig{Threads: 2, CbufBytes: 12},
		func(k FlushKind) { flushes[k]++ })
	sink := s.ChunkSink(0)
	for i := 0; i < 10; i++ {
		sink(chunk.Entry{Size: uint64(i + 1), TS: uint64(i), Reason: chunk.ReasonCTROverflow})
	}
	// 10 delta-encoded entries x 3 bytes = 30 bytes through a 12-byte
	// CBUF: 2 flushes.
	if flushes[FlushChunk] != 2 || s.Flushes(FlushChunk) != 2 {
		t.Errorf("chunk flushes = %d/%d, want 2", flushes[FlushChunk], s.Flushes(FlushChunk))
	}
	if s.ChunkLog(0).Len() != 10 || s.ChunkLog(1).Len() != 0 {
		t.Errorf("log lens = %d/%d", s.ChunkLog(0).Len(), s.ChunkLog(1).Len())
	}
	if s.ChunkBytes() != 30 {
		t.Errorf("ChunkBytes = %d, want 30", s.ChunkBytes())
	}
	if len(s.ChunkLogs()) != 2 {
		t.Errorf("ChunkLogs = %d, want 2", len(s.ChunkLogs()))
	}
}

func TestSessionInputRecording(t *testing.T) {
	s := NewSession(SessionConfig{Threads: 2, CbufBytes: 32}, nil)
	s.RecordSyscall(0, 5, SysRead, 64, 100, make([]byte, 64))
	s.RecordSignal(0, 9, 2, 1234, 0)
	s.RecordSyscall(1, 6, SysGetTime, 777, 0, nil)
	in := s.InputLog()
	if in.Len() != 3 {
		t.Fatalf("input records = %d, want 3", in.Len())
	}
	// Per-thread sequence numbers are independent.
	if in.Records[0].Seq != 0 || in.Records[1].Seq != 1 || in.Records[2].Seq != 0 {
		t.Errorf("seqs = %d,%d,%d, want 0,1,0",
			in.Records[0].Seq, in.Records[1].Seq, in.Records[2].Seq)
	}
	// Each record is charged its encoded size: the bare record stream
	// minus its one-byte count.
	if want := uint64(len(MarshalRecords(in.Records)) - 1); s.InputBytes() != want {
		t.Errorf("InputBytes = %d, want %d", s.InputBytes(), want)
	}
	if s.Flushes(FlushInput) == 0 {
		t.Error("tiny CBUF should have flushed")
	}
}

func TestSessionDeltaSizingUsesPrevEntry(t *testing.T) {
	// With delta encoding, closely spaced timestamps cost less than the
	// fixed encoding would; verify the accounting reflects per-thread
	// delta chains rather than absolute encodes.
	s := NewSession(SessionConfig{Threads: 1, CbufBytes: 1 << 20}, nil)
	sink := s.ChunkSink(0)
	ts := uint64(1 << 40) // huge absolute, tiny deltas
	for i := 0; i < 100; i++ {
		ts++
		sink(chunk.Entry{Size: 10, TS: ts, Reason: chunk.ReasonCTROverflow})
	}
	// First entry pays the absolute TS; the rest are ~3 bytes each.
	if s.ChunkBytes() > 400 {
		t.Errorf("delta-encoded bytes = %d, want well under 400", s.ChunkBytes())
	}
}

func TestSessionConfigValidation(t *testing.T) {
	for _, cfg := range []SessionConfig{
		{Threads: 0, CbufBytes: 10},
		{Threads: 1, CbufBytes: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewSession(cfg, nil)
		}()
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Kind: KindSyscall, Thread: 1, Sysno: SysRead, Data: []byte{1}}
	if s := r.String(); s == "" {
		t.Error("empty String for syscall record")
	}
	r = Record{Kind: KindSignal, Thread: 1, Signo: 2}
	if s := r.String(); s == "" {
		t.Error("empty String for signal record")
	}
	r = Record{Kind: RecordKind(9)}
	if s := r.String(); s == "" {
		t.Error("empty String for unknown record")
	}
}
