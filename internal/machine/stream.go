package machine

import (
	"repro/internal/chunk"
	"repro/internal/segment"
)

// initStream opens the segmented stream: the manifest is written
// immediately so even a recorder that dies before its first flush leaves
// an identifiable (if empty) stream behind.
func (m *Machine) initStream() {
	m.stream = segment.NewWriter(m.cfg.StreamTo)
	m.stream.WriteManifest(segment.Manifest{
		ProgramName:         m.prog.Name,
		Threads:             m.cfg.Threads,
		StackWordsPerThread: m.cfg.StackWordsPerThread,
		CountRepIterations:  m.cfg.MRR.CountRepIterations,
		EncodingID:          chunk.DeltaID,
		FlushEveryChunks:    m.cfg.FlushEveryChunks,
	})
	m.streamedChunkPos = make([]int, m.cfg.Threads)
}

// noteStreamedChunk counts a freshly emitted chunk entry toward the
// flush cadence.
func (m *Machine) noteStreamedChunk() {
	m.pendingChunks++
}

// maybeFlushStream flushes an epoch once enough chunk entries
// accumulated. Called from the run loop between bursts, where every core
// sits at an instruction boundary (the same quiescence checkpoints rely
// on), so per-thread recorder clocks are coherent watermark sources.
func (m *Machine) maybeFlushStream() {
	if m.stream == nil || m.pendingChunks < m.cfg.FlushEveryChunks {
		return
	}
	m.flushStream()
}

// clockWatermark returns thread th's flush watermark: every item the
// thread has emitted so far carries a strictly smaller timestamp, and
// every item it will emit later carries a greater-or-equal one. For a
// running thread that is its core's recorder clock (Terminate stamps
// TS=clock then increments; StampInput likewise); for a parked or exited
// thread the clock was captured into savedClock at park time.
func (m *Machine) clockWatermark(th *thread) uint64 {
	if th.state == thRunning {
		return m.mrrs[th.core].Clock()
	}
	return th.savedClock
}

// flushStream emits one epoch: a commit declaring per-thread watermarks
// and batch counts, then the pending chunk batches (ascending thread),
// then the pending input batch. The commit-first order is what makes a
// torn tail salvageable — see segment.Salvage.
func (m *Machine) flushStream() {
	if m.stream == nil {
		return
	}
	m.pendingChunks = 0
	pendingInput := m.session.InputLog().Records[m.streamedInputPos:]
	anyChunks := false
	for t := range m.threads {
		if m.session.ChunkLog(t).Len() > m.streamedChunkPos[t] {
			anyChunks = true
			break
		}
	}
	if !anyChunks && len(pendingInput) == 0 {
		return
	}
	n := len(m.threads)
	c := segment.Commit{
		Epoch:      m.streamEpoch,
		Watermark:  make([]uint64, n),
		Exited:     make([]bool, n),
		ChunkCount: make([]int, n),
		InputCount: make([]int, n),
	}
	for t, th := range m.threads {
		c.Watermark[t] = m.clockWatermark(th)
		c.Exited[t] = th.state == thExited
		c.ChunkCount[t] = m.session.ChunkLog(t).Len() - m.streamedChunkPos[t]
	}
	for _, r := range pendingInput {
		c.InputCount[r.Thread]++
	}
	m.stream.WriteCommit(c)
	m.streamEpoch++
	for t := 0; t < n; t++ {
		if c.ChunkCount[t] == 0 {
			continue
		}
		entries := m.session.ChunkLog(t).Entries[m.streamedChunkPos[t]:]
		m.stream.WriteChunkBatch(t, entries)
		m.streamedChunkPos[t] += len(entries)
	}
	if len(pendingInput) > 0 {
		m.stream.WriteInputBatch(pendingInput)
		m.streamedInputPos += len(pendingInput)
	}
}

// finishStream flushes the last epoch and closes the stream with the
// reference final state. Every segment has reached Config.StreamTo by
// then, so the stats describe the bytes written there.
func (m *Machine) finishStream(res *Result) {
	if m.stream == nil {
		return
	}
	m.flushStream()
	m.stream.WriteFinal(&segment.FinalPayload{
		MemChecksum:      res.MemChecksum,
		Output:           res.Output,
		FinalContexts:    res.FinalContexts,
		RetiredPerThread: res.RetiredPerThread,
	})
	m.stream.Close() // errors are sticky; Run surfaces Err after finalize
	res.StreamSegments = m.stream.Segments()
	res.StreamBytes = m.stream.TotalBytes()
	res.StreamFramingBytes = m.stream.FramingBytes()
}
