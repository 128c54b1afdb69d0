package machine

import (
	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/perf"
)

// maybeCheckpoint takes a flight-recorder snapshot when the retired
// instruction counter crosses the next checkpoint boundary. Called from
// the run loop between bursts, when every core sits at an instruction
// boundary and no syscall is in flight.
func (m *Machine) maybeCheckpoint() {
	if m.cfg.CheckpointEveryInstrs == 0 || !m.recording() || m.retired < m.nextCkpt {
		return
	}
	m.nextCkpt = m.retired + m.cfg.CheckpointEveryInstrs

	// Close every open chunk so post-checkpoint entries cover only
	// post-checkpoint instructions.
	for coreID, tid := range m.running {
		if tid >= 0 {
			m.mrrs[coreID].Terminate(chunk.ReasonCheckpoint)
		}
	}

	ck := &capo.Checkpoint{
		Snapshot: capo.Snapshot{
			Mem:      m.bus.SnapshotMemory(),
			Contexts: make([]isa.Context, len(m.threads)),
			Exited:   make([]bool, len(m.threads)),
			SigRegs:  make([][isa.NumRegs]uint64, len(m.threads)),
			SigPC:    make([]int, len(m.threads)),
			Output:   append([]byte(nil), m.kernel.Output(1)...),
		},
		RetiredAt: m.retired,
		ChunkPos:  make([]int, len(m.threads)),
		InputPos:  m.session.InputLog().Len(),
	}
	ck.HandlerPC, ck.HandlerOK = m.kernel.HandlerPC()
	for t, th := range m.threads {
		switch th.state {
		case thExited:
			ck.Contexts[t] = th.finalCtx
			ck.Exited[t] = true
		case thRunning:
			ck.Contexts[t] = m.cores[th.core].SaveContext()
		default: // runnable or blocked: parked context is current
			ck.Contexts[t] = th.ctx
		}
		ck.SigRegs[t] = th.sigRegs
		ck.SigPC[t] = th.sigPC
		ck.ChunkPos[t] = m.session.ChunkLog(t).Len()
	}
	m.checkpoints = append(m.checkpoints, ck)
	if m.stream != nil {
		// The flush makes the snapshot's positions equal the streamed
		// counts, so a salvaged prefix that includes the checkpoint can
		// always resume from it.
		m.flushStream()
		m.stream.WriteCheckpoint(ck)
	}
	m.acct.Add(perf.CompKernel, m.cfg.Perf.CheckpointCost)
	m.chargeFull(perf.CompRecSched, m.cfg.Perf.RecCheckpointExtra)
}
