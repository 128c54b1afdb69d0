package capo

import (
	"repro/internal/chunk"
	"repro/internal/wire"
)

// FlushKind says which per-thread buffer filled up.
type FlushKind int

// Flush kinds.
const (
	// FlushChunk drains a thread's chunk-log CBUF to the daemon.
	FlushChunk FlushKind = iota
	// FlushInput drains a thread's input-log CBUF to the daemon.
	FlushInput
)

// SessionConfig sizes a recording session (a replay sphere).
type SessionConfig struct {
	// Threads is the number of recorded threads.
	Threads int
	// CbufBytes is the per-thread kernel log buffer size; filling one
	// costs a flush to the user-space daemon. Chunk entries fill it at
	// their delta-encoded size, the encoding bundles and streams carry.
	CbufBytes int
}

// Session is one recording session: the RSM state for a replay sphere.
// It owns the per-thread chunk logs, the input log, and the CBUF
// occupancy accounting that drives flush costs.
type Session struct {
	cfg     SessionConfig
	onFlush func(FlushKind)

	chunkLogs []*chunk.Log
	sigLogs   [][]SigPair
	input     InputLog
	seq       []int // per-thread input sequence numbers

	chunkFill  []int
	inputFill  []int
	chunkPrev  []*chunk.Entry // previous entry per thread, for delta sizing
	numFlushes [2]uint64
	chunkBytes uint64
	inputBytes uint64
	// scratch holds the encoding of the entry or record being sized, so
	// byte accounting reuses one buffer instead of allocating per event.
	scratch wire.Appender
}

// NewSession creates a session. onFlush (may be nil) fires whenever a
// CBUF fills and is drained; the machine charges flush cycles there.
func NewSession(cfg SessionConfig, onFlush func(FlushKind)) *Session {
	if cfg.Threads <= 0 {
		panic("capo: session needs at least one thread")
	}
	if cfg.CbufBytes <= 0 {
		panic("capo: CbufBytes must be positive")
	}
	s := &Session{
		cfg:       cfg,
		onFlush:   onFlush,
		chunkLogs: make([]*chunk.Log, cfg.Threads),
		seq:       make([]int, cfg.Threads),
		chunkFill: make([]int, cfg.Threads),
		inputFill: make([]int, cfg.Threads),
		chunkPrev: make([]*chunk.Entry, cfg.Threads),
	}
	for i := range s.chunkLogs {
		s.chunkLogs[i] = &chunk.Log{Thread: i}
	}
	return s
}

// SigPair is one chunk's serialized read and write Bloom signatures,
// captured at chunk termination. When signature capture is enabled the
// per-thread sig log is parallel to the chunk log: entry i of either
// describes the same chunk.
type SigPair struct {
	Read  []byte
	Write []byte
}

// SigSink returns the recorder signature sink for thread tid. Captured
// signature bytes are an offline-analysis artefact, not part of the
// prototype's log stream, so they are deliberately excluded from CBUF
// fill and byte accounting.
func (s *Session) SigSink(tid int) func(read, write []byte) {
	if s.sigLogs == nil {
		s.sigLogs = make([][]SigPair, s.cfg.Threads)
	}
	return func(read, write []byte) {
		s.sigLogs[tid] = append(s.sigLogs[tid], SigPair{Read: read, Write: write})
	}
}

// SigLogs returns the per-thread signature logs, or nil when no sig sink
// was ever installed.
func (s *Session) SigLogs() [][]SigPair { return s.sigLogs }

// ChunkSink returns the recorder sink for thread tid: it appends entries
// to the thread's chunk log and models CBUF occupancy.
func (s *Session) ChunkSink(tid int) func(chunk.Entry) {
	return func(e chunk.Entry) {
		log := s.chunkLogs[tid]
		s.scratch.Buf = chunk.Delta{}.Append(s.scratch.Buf[:0], e, s.chunkPrev[tid])
		n := s.scratch.Len()
		log.Append(e)
		s.chunkPrev[tid] = &log.Entries[len(log.Entries)-1]
		s.chunkBytes += uint64(n)
		s.fill(&s.chunkFill[tid], n, FlushChunk)
	}
}

func (s *Session) fill(cur *int, n int, kind FlushKind) {
	*cur += n
	if *cur >= s.cfg.CbufBytes {
		*cur = 0
		s.numFlushes[kind]++
		if s.onFlush != nil {
			s.onFlush(kind)
		}
	}
}

// NextSeq allocates the next input-record sequence number for tid.
func (s *Session) NextSeq(tid int) int {
	n := s.seq[tid]
	s.seq[tid]++
	return n
}

// RecordSyscall logs a completed system call and returns the encoded
// size of its record: the bytes it adds to the thread's input CBUF.
func (s *Session) RecordSyscall(tid int, ts, sysno, ret, addr uint64, data []byte) int {
	return s.record(Record{
		Kind: KindSyscall, Thread: tid, Seq: s.NextSeq(tid), TS: ts,
		Sysno: sysno, Ret: ret, Addr: addr, Data: data,
	})
}

// RecordSignal logs an asynchronous signal delivery.
func (s *Session) RecordSignal(tid int, ts, signo, retired, repDone uint64) {
	s.record(Record{
		Kind: KindSignal, Thread: tid, Seq: s.NextSeq(tid), TS: ts,
		Signo: signo, Retired: retired, RepDone: repDone,
	})
}

// record appends r to the input log, charges its encoded size to the
// thread's input CBUF and returns that size.
func (s *Session) record(r Record) int {
	s.input.Append(r)
	s.scratch.Reset()
	appendRecord(&s.scratch, r)
	n := s.scratch.Len()
	s.inputBytes += uint64(n)
	s.fill(&s.inputFill[r.Thread], n, FlushInput)
	return n
}

// ChunkLog returns thread tid's chunk log.
func (s *Session) ChunkLog(tid int) *chunk.Log { return s.chunkLogs[tid] }

// ChunkLogs returns all per-thread chunk logs.
func (s *Session) ChunkLogs() []*chunk.Log { return s.chunkLogs }

// InputLog returns the session's input log.
func (s *Session) InputLog() *InputLog { return &s.input }

// Flushes returns how many CBUF drains occurred per kind.
func (s *Session) Flushes(kind FlushKind) uint64 { return s.numFlushes[kind] }

// ChunkBytes returns the encoded chunk-log volume so far.
func (s *Session) ChunkBytes() uint64 { return s.chunkBytes }

// InputBytes returns the encoded input-log volume so far.
func (s *Session) InputBytes() uint64 { return s.inputBytes }
