package machine

import (
	"errors"
	"fmt"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mrr"
	"repro/internal/perf"
)

// ErrDeadlock reports that non-exited threads remain but none are
// runnable (all blocked on futexes).
var ErrDeadlock = errors.New("machine: deadlock: all live threads blocked")

// ErrStepLimit reports that the run exceeded Config.MaxSteps.
var ErrStepLimit = errors.New("machine: step limit exceeded")

// ErrFault reports that the program did something the machine cannot
// execute: a PC outside the program, a word access that is unaligned or
// beyond memory, a syscall the kernel cannot serve, or a sigreturn
// outside a signal handler (see mem.Fault).
// The error text carries the fault's description.
var ErrFault = errors.New("machine: execution fault")

// Run executes the program to completion and returns the result. A
// machine can run only once. An execution fault ends the run with an
// error wrapping ErrFault. A run that fails leaves its stream as it
// stands: no last flush and no final segment, so what reached
// Config.StreamTo salvages as a torn recording.
func (m *Machine) Run() (res *Result, err error) {
	if m.ran {
		panic("machine: Run called twice")
	}
	m.ran = true
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(mem.Fault)
			if !ok {
				panic(r)
			}
			res, err = nil, fmt.Errorf("%w: %v", ErrFault, f)
		}
	}()

	for m.liveCnt > 0 {
		m.scheduleIdle()
		active := m.activeCores()
		if len(active) == 0 {
			return nil, fmt.Errorf("%w (%d live, %d futex waiters)",
				ErrDeadlock, m.liveCnt, m.kernel.Waiters())
		}
		coreID := active[m.rand64()%uint64(len(active))]
		burst := 1 + int(m.rand64()%uint64(m.cfg.BurstMax))
		m.runBurst(coreID, burst)
		m.maybeCheckpoint()
		m.maybeFlushStream()
		if m.steps > m.cfg.MaxSteps {
			return nil, fmt.Errorf("%w (%d steps)", ErrStepLimit, m.steps)
		}
	}
	res = m.finalize()
	if m.stream != nil && m.stream.Err() != nil {
		return nil, m.stream.Err()
	}
	return res, nil
}

// activeCores returns cores with a running thread, ascending. The slice
// is overwritten by the next call.
func (m *Machine) activeCores() []int {
	out := m.coreBuf[:0]
	for i, tid := range m.running {
		if tid >= 0 {
			out = append(out, i)
		}
	}
	m.coreBuf = out
	return out
}

// scheduleIdle places runnable threads onto idle cores (FIFO, ascending
// core order).
func (m *Machine) scheduleIdle() {
	for coreID, tid := range m.running {
		if tid >= 0 || len(m.runq) == 0 {
			continue
		}
		next := m.runq[0]
		m.runq = m.runq[:copy(m.runq, m.runq[1:])]
		m.assign(next, coreID)
	}
}

// assign schedules thread tid onto coreID.
func (m *Machine) assign(tid, coreID int) {
	th := m.threads[tid]
	m.cores[coreID].RestoreContext(th.ctx)
	if rec := m.mrrs[coreID]; rec != nil {
		rec.RaiseClock(th.savedClock)
		rec.SetSink(m.chunkSinks[tid])
		if m.cfg.CaptureSignatures {
			rec.SetSigSink(m.sigSinks[tid])
		}
		rec.SetEnabled(true)
	}
	th.state = thRunning
	th.core = coreID
	th.sliceInstrs = 0
	m.running[coreID] = tid
}

// park removes the running thread from coreID, saving its context and
// recorder clock. The caller sets the thread's next state.
func (m *Machine) park(coreID int) *thread {
	tid := m.running[coreID]
	th := m.threads[tid]
	if rec := m.mrrs[coreID]; rec != nil {
		th.savedClock = rec.Clock()
		rec.SetSink(nil)
		rec.SetSigSink(nil)
		rec.SetEnabled(false)
	}
	th.ctx = m.cores[coreID].SaveContext()
	th.core = -1
	m.running[coreID] = -1
	return th
}

// runBurst steps coreID up to burst units of work, stopping early when
// the thread blocks, exits, yields or is preempted. The thread on the
// core changes only on the paths that return, so its core, recorder and
// state are read once; whether a signal or a preemption is due is one
// comparison each, made here in front of the slow paths.
func (m *Machine) runBurst(coreID, burst int) {
	tid := m.running[coreID]
	if tid < 0 {
		return
	}
	core := m.cores[coreID]
	rec := m.mrrs[coreID]
	th := m.threads[tid]
	cpi := m.cfg.Perf.BaseCPI
	for i := 0; i < burst; i++ {
		kind := core.Step()
		m.steps++
		switch kind {
		case isa.StepRetired, isa.StepRepRetired:
			m.acct.Add(perf.CompInstr, cpi)
			m.noteRetire(th, rec)
		case isa.StepRepTick:
			m.acct.Add(perf.CompInstr, cpi)
			if rec != nil {
				rec.OnRepTick()
			}
		case isa.StepSyscall:
			if !m.handleSyscall(coreID) {
				return // thread blocked, exited or yielded
			}
		case isa.StepHalted:
			m.retireHaltedThread(coreID)
			return
		}
		if m.cfg.SignalPeriodInstrs != 0 && m.retired >= m.nextSig && m.deliverSignal() {
			// A signal may have landed on this core's thread; its PC
			// changed but it remains runnable. Keep going.
			continue
		}
		if len(m.runq) != 0 && m.cfg.TimeSliceInstrs != 0 && th.sliceInstrs >= m.cfg.TimeSliceInstrs {
			m.preempt(coreID)
			return
		}
	}
}

// noteRetire performs the per-retired-instruction bookkeeping.
func (m *Machine) noteRetire(th *thread, rec *mrr.Recorder) {
	m.retired++
	th.sliceInstrs++
	if rec != nil {
		rec.OnRetire()
	}
}

// retireHaltedThread finishes a thread that executed HALT.
func (m *Machine) retireHaltedThread(coreID int) {
	rec := m.mrrs[coreID]
	// The HALT instruction itself retired inside Step.
	m.acct.Add(perf.CompInstr, m.cfg.Perf.BaseCPI)
	m.retired++
	if rec != nil {
		rec.OnRetire()
		rec.Terminate(chunk.ReasonFlush)
	}
	th := m.park(coreID)
	th.state = thExited
	th.finalCtx = th.ctx
	m.liveCnt--
}

// handleSyscall processes a syscall trap on coreID. It returns true when
// the thread completed the call and continues running on this core.
//
// Capo3 buffers syscalls the way rr does: a call whose input record
// holds its whole effect is logged by the thread itself, into its own
// input CBUF, without entering the RSM driver. Only a call that blocks,
// exits or reschedules the thread, or changes the signal state the RSM
// keeps, crosses into the driver, after the kernel has handled it. A
// full input CBUF drains through a crossing too (onCbufFlush).
func (m *Machine) handleSyscall(coreID int) bool {
	tid := m.running[coreID]
	core := m.cores[coreID]
	rec := m.mrrs[coreID]
	th := m.threads[tid]
	pp := &m.cfg.Perf

	if rec != nil {
		rec.Terminate(chunk.ReasonSyscall)
		rec.SetEnabled(false)
	}
	m.acct.Add(perf.CompKernel, pp.SyscallBase)

	sysno, a1, a2, a3, _ := core.SyscallArgs()
	if sysno == capo.SysSigReturn && !th.sigMasked {
		// No signal frame to restore: resuming at the zero frame would
		// restart the thread at PC 0 with cleared registers.
		panic(mem.Faultf("machine: thread %d: sigreturn outside a signal handler", tid))
	}
	res := m.kernel.Handle(tid, m.acct.Total(), sysno, a1, a2, a3, m.ports[coreID])
	m.acct.Add(perf.CompKernel, pp.CopyPerWord*uint64(res.WordsTouched))
	if len(res.CopyData) > 0 {
		m.chargeFull(perf.CompRecInputCopy, pp.RecInputPerWord*uint64((len(res.CopyData)+7)/8))
	}
	for _, w := range res.Woken {
		m.wake(w)
	}
	crosses := res.Exit || res.Block || res.Reschedule ||
		sysno == capo.SysSigHandler || sysno == capo.SysSigReturn
	if crosses {
		m.chargeFull(perf.CompRecDriver, pp.RecSyscallExtra)
	}

	switch {
	case res.Exit:
		m.syscalls++
		if rec != nil {
			ts := rec.StampInput()
			m.session.RecordSyscall(tid, ts, sysno, 0, 0, nil)
		}
		core.AbortSyscall()
		exited := m.park(coreID)
		exited.state = thExited
		exited.finalCtx = exited.ctx
		m.liveCnt--
		return false

	case res.Block:
		// Futex sleep: abort the syscall so the instruction re-executes
		// when the thread wakes (sound: the wait re-checks the futex
		// word, and only the completing execution is logged).
		core.AbortSyscall()
		blocked := m.park(coreID)
		blocked.state = thBlocked
		m.acct.Add(perf.CompKernel, pp.CtxSwitch)
		m.chargeFull(perf.CompRecSched, pp.RecSwitchExtra)
		return false

	default:
		m.syscalls++
		if rec != nil {
			// Writes to a shared fd serialize through the kernel: couple
			// the clock through it so replay reproduces the recorded
			// byte order in the output stream.
			if sysno == capo.SysWrite {
				rec.RaiseClock(m.lastWriteTS + 1)
			}
			ts := rec.StampInput()
			if sysno == capo.SysWrite {
				m.lastWriteTS = ts
			}
			n := m.session.RecordSyscall(tid, ts, sysno, res.Ret, res.CopyAddr, res.CopyData)
			if !crosses {
				// The thread copies the record's header words into its
				// CBUF; its data words were charged above.
				m.chargeFull(perf.CompRecInputCopy, pp.RecInputPerWord*uint64((n-len(res.CopyData)+7)/8))
			}
		}
		if rec != nil {
			rec.SetEnabled(true)
		}
		core.CompleteSyscall(res.Ret)
		m.acct.Add(perf.CompInstr, pp.BaseCPI)
		m.noteRetire(th, rec)
		if sysno == capo.SysSigReturn {
			// Atomically restore the signal frame and unmask.
			th.sigMasked = false
			for r := isa.Reg(1); r < isa.NumRegs; r++ {
				core.SetReg(r, th.sigRegs[r])
			}
			core.SetPC(th.sigPC)
		}
		if res.Reschedule && len(m.runq) > 0 {
			yielded := m.park(coreID)
			yielded.state = thRunnable
			m.runq = append(m.runq, tid)
			m.switches++
			m.acct.Add(perf.CompKernel, pp.CtxSwitch)
			m.chargeFull(perf.CompRecSched, pp.RecSwitchExtra)
			return false
		}
		return true
	}
}

// wake makes a futex-blocked thread runnable.
func (m *Machine) wake(tid int) {
	th := m.threads[tid]
	if th.state != thBlocked {
		panic(fmt.Sprintf("machine: waking thread %d in state %d", tid, th.state))
	}
	th.state = thRunnable
	m.runq = append(m.runq, tid)
}

// preempt deschedules coreID's running thread, whose instruction slice
// expired while another thread waits (runBurst checks both).
func (m *Machine) preempt(coreID int) {
	tid := m.running[coreID]
	if rec := m.mrrs[coreID]; rec != nil {
		rec.Terminate(chunk.ReasonSwitch)
	}
	preempted := m.park(coreID)
	preempted.state = thRunnable
	m.runq = append(m.runq, tid)
	m.switches++
	m.acct.Add(perf.CompKernel, m.cfg.Perf.CtxSwitch)
	m.chargeFull(perf.CompRecSched, m.cfg.Perf.RecSwitchExtra)
}

// deliverSignal runs once the global retired-instruction counter has
// crossed the next delivery point (runBurst checks it). It draws the
// next point and, if the program registered a handler, delivers an
// asynchronous signal. Returns true if a signal was delivered.
func (m *Machine) deliverSignal() bool {
	m.nextSig = m.retired + m.cfg.SignalPeriodInstrs + m.rand64()%(m.cfg.SignalPeriodInstrs/2+1)
	handlerPC, ok := m.kernel.HandlerPC()
	if !ok {
		return false
	}
	// Candidates: running, unmasked threads at instruction boundaries
	// (all running threads are, between machine steps).
	cands := m.coreBuf[:0]
	for coreID, tid := range m.running {
		if tid >= 0 && !m.threads[tid].sigMasked && !m.cores[coreID].InSyscall() {
			cands = append(cands, coreID)
		}
	}
	m.coreBuf = cands
	if len(cands) == 0 {
		return false
	}
	coreID := cands[m.rand64()%uint64(len(cands))]
	tid := m.running[coreID]
	core := m.cores[coreID]
	th := m.threads[tid]
	rec := m.mrrs[coreID]

	const signo = 1
	if rec != nil {
		rec.Terminate(chunk.ReasonTrap)
		rec.SetEnabled(false)
		_, repDone := core.RepInFlight()
		ts := rec.StampInput()
		m.session.RecordSignal(tid, ts, signo, core.Retired(), repDone)
	}
	// Vector: the kernel saves the signal frame (full register file plus
	// PC), clears in-flight REP bookkeeping (the partially executed REP
	// resumes as a fresh instruction after the handler), and jumps to
	// the handler with the signal masked.
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		th.sigRegs[r] = core.Reg(r)
	}
	th.sigPC = core.PC()
	core.ClearRepState()
	core.SetPC(handlerPC)
	th.sigMasked = true
	if rec != nil {
		rec.SetEnabled(true)
	}
	m.signals++
	m.acct.Add(perf.CompKernel, m.cfg.Perf.SignalDeliver)
	m.chargeFull(perf.CompRecSched, m.cfg.Perf.RecSignalExtra)
	return true
}

// finalize flushes caches and assembles the Result.
func (m *Machine) finalize() *Result {
	m.bus.FlushAll()
	res := &Result{
		Cycles:           m.acct.Total(),
		Acct:             m.acct,
		Retired:          m.retired,
		Output:           append([]byte(nil), m.kernel.Output(1)...),
		MemChecksum:      m.memory.Checksum(),
		Session:          m.session,
		BusStats:         m.bus.Stats(),
		Syscalls:         m.syscalls,
		CtxSwitches:      m.switches,
		SignalsDelivered: m.signals,
		Checkpoints:      m.checkpoints,
	}
	for _, th := range m.threads {
		res.FinalContexts = append(res.FinalContexts, th.finalCtx)
		res.RetiredPerThread = append(res.RetiredPerThread, th.finalCtx.Retired)
	}
	for i, c := range m.caches {
		res.CacheStats = append(res.CacheStats, c.Stats())
		res.MemAccesses += m.ports[i].accesses
	}
	if m.recording() {
		for _, r := range m.mrrs {
			res.MRRStats = append(res.MRRStats, r.Stats())
		}
	}
	m.finishStream(res)
	return res
}

// Memory exposes the machine's memory (for verification in tests and the
// CLI; read-only use expected after Run).
func (m *Machine) Memory() *mem.Memory { return m.memory }
