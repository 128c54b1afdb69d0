package capo

import (
	"bytes"
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
		return bytes.Equal(LoadBytes(p, 64, uint64(len(data))), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKernelWriteCapturesOutput(t *testing.T) {
	k := NewKernel(1)
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
		k := NewKernel(seed)
		m := mem.New(1024)
		res := k.Handle(0, 0, SysRead, 0, 64, 32, memPort{m})
		if res.Ret != 32 || res.CopyAddr != 64 || len(res.CopyData) != 32 {
			t.Fatalf("read result = %+v", res)
		}
		if !bytes.Equal(m.LoadBytes(64, 32), res.CopyData) {
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
	k := NewKernel(1)
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

func TestMiscSyscalls(t *testing.T) {
	k := NewKernel(5)
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
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("unknown syscall did not panic")
		}
	}()
	k.Handle(0, 0, 999, 0, 0, 0, memPort{mem.New(64)})
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
	s := NewSession(SessionConfig{Threads: 2, CbufBytes: 64, Encoding: chunk.Fixed{}},
		func(k FlushKind) { flushes[k]++ })
	sink := s.ChunkSink(0)
	for i := 0; i < 10; i++ {
		sink(chunk.Entry{Size: uint64(i + 1), TS: uint64(i), Reason: chunk.ReasonCTROverflow})
	}
	// 10 entries x 16 bytes = 160 bytes through a 64-byte CBUF: 2 flushes.
	if flushes[FlushChunk] != 2 || s.Flushes(FlushChunk) != 2 {
		t.Errorf("chunk flushes = %d/%d, want 2", flushes[FlushChunk], s.Flushes(FlushChunk))
	}
	if s.ChunkLog(0).Len() != 10 || s.ChunkLog(1).Len() != 0 {
		t.Errorf("log lens = %d/%d", s.ChunkLog(0).Len(), s.ChunkLog(1).Len())
	}
	if s.ChunkBytes() != 160 {
		t.Errorf("ChunkBytes = %d, want 160", s.ChunkBytes())
	}
	if len(s.ChunkLogs()) != 2 {
		t.Errorf("ChunkLogs = %d, want 2", len(s.ChunkLogs()))
	}
}

func TestSessionInputRecording(t *testing.T) {
	s := NewSession(SessionConfig{Threads: 2, CbufBytes: 32, Encoding: chunk.Delta{}}, nil)
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
	if s.InputBytes() == 0 {
		t.Error("InputBytes not accounted")
	}
	if s.Flushes(FlushInput) == 0 {
		t.Error("tiny CBUF should have flushed")
	}
}

func TestSessionDeltaSizingUsesPrevEntry(t *testing.T) {
	// With delta encoding, closely spaced timestamps cost less than the
	// fixed encoding would; verify the accounting reflects per-thread
	// delta chains rather than absolute encodes.
	s := NewSession(SessionConfig{Threads: 1, CbufBytes: 1 << 20, Encoding: chunk.Delta{}}, nil)
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
	// Nil encoding defaults to Delta.
	s := NewSession(SessionConfig{Threads: 1, CbufBytes: 10}, nil)
	if s.Config().Encoding == nil {
		t.Error("nil encoding not defaulted")
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
