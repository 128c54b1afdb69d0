// Package perf is the cycle-accounting performance model of the QuickRec
// prototype. The simulator is functionally driven; perf attaches costs to
// the events it produces (instructions, cache misses, kernel crossings,
// recording-stack work) so experiments can report execution-time overhead
// the way the paper does: native vs hardware-only recording vs the full
// Capo3 software stack.
//
// Calibration. The absolute constants are not the paper's (the prototype
// ran FPGA-emulated Pentiums at 60 MHz); they are chosen so the *shapes*
// the abstract commits to hold on our workload suite:
//
//   - recording hardware overhead is negligible (chunk log writes are
//     DMA-style and cost a few cycles of pipeline disturbance each);
//   - the software stack adds ~13% on average, dominated by input
//     logging (per-byte copy cost) and driver entry/exit on syscalls.
//
// EXPERIMENTS.md records measured-vs-target values for each experiment.
package perf

// Params holds the cycle costs of every modelled event.
type Params struct {
	// BaseCPI is the cost of any retired instruction (and of one REP
	// iteration).
	BaseCPI uint64
	// Memory-hierarchy costs, added on top of BaseCPI per access class.
	HitCost     uint64
	UpgradeCost uint64
	MissMemCost uint64
	MissC2CCost uint64

	// Kernel costs (native).
	SyscallBase   uint64 // kernel entry + exit
	CopyPerWord   uint64 // kernel copy loop cost per 64-bit word, on top of cache costs
	CtxSwitch     uint64 // scheduler + register file swap
	SignalDeliver uint64 // signal frame setup

	// Recording software stack (Capo3) costs, added when a session is on.
	RecSyscallExtra uint64 // RSM driver interception per kernel crossing
	RecInputPerWord uint64 // logging copy of input data per 64-bit word
	RecCbufFlush    uint64 // flushing one CBUF to the logging daemon
	RecSwitchExtra  uint64 // RSM bookkeeping per context switch
	RecSignalExtra  uint64 // RSM bookkeeping per signal delivery
	// Flight-recorder checkpoint costs (extension).
	CheckpointCost     uint64 // copy-on-snapshot of the memory image
	RecCheckpointExtra uint64 // RSM bookkeeping per checkpoint
	// Recording hardware cost.
	RecChunkWrite uint64 // pipeline disturbance per chunk log entry
}

// DefaultParams returns the calibrated model.
func DefaultParams() Params {
	return Params{
		BaseCPI:     1,
		HitCost:     0,
		UpgradeCost: 12,
		MissMemCost: 30,
		MissC2CCost: 18,

		SyscallBase:   250,
		CopyPerWord:   1,
		CtxSwitch:     400,
		SignalDeliver: 300,

		RecSyscallExtra: 900,
		RecInputPerWord: 24,
		RecCbufFlush:    1500,
		RecSwitchExtra:  300,
		RecSignalExtra:  300,

		CheckpointCost:     20000,
		RecCheckpointExtra: 4000,

		RecChunkWrite: 1,
	}
}

// Component identifies where cycles were spent, for overhead breakdowns.
type Component int

// Cycle components.
const (
	CompInstr        Component = iota // instruction execution
	CompMem                           // cache/coherence stalls
	CompKernel                        // native kernel work (syscalls, switches, signals)
	CompRecDriver                     // RSM driver entry/exit on kernel crossings
	CompRecInputCopy                  // input-log data copying
	CompRecCbufFlush                  // CBUF flushes to the logging daemon
	CompRecSched                      // RSM context-switch/signal bookkeeping
	CompRecHardware                   // chunk log writes

	NumComponents
)

var componentNames = [NumComponents]string{
	CompInstr: "instr", CompMem: "mem", CompKernel: "kernel",
	CompRecDriver: "rec-driver", CompRecInputCopy: "rec-input-copy",
	CompRecCbufFlush: "rec-cbuf-flush", CompRecSched: "rec-sched",
	CompRecHardware: "rec-hardware",
}

// String returns the component's short name.
func (c Component) String() string {
	if c >= 0 && int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "unknown"
}

// IsRecording reports whether the component exists only because
// recording is on.
func (c Component) IsRecording() bool {
	switch c {
	case CompRecDriver, CompRecInputCopy, CompRecCbufFlush, CompRecSched, CompRecHardware:
		return true
	}
	return false
}

// Accounting accumulates cycles by component. The machine model keeps one
// global accounting (the prototype measures wall-clock execution time of
// the parallel run; our scheduler advances one core at a time, so global
// cycles model the same quantity at the simulator's interleaving
// granularity).
type Accounting struct {
	byComp [NumComponents]uint64
}

// Add charges n cycles to component c.
func (a *Accounting) Add(c Component, n uint64) { a.byComp[c] += n }

// Get returns the cycles charged to component c.
func (a *Accounting) Get(c Component) uint64 { return a.byComp[c] }

// Total returns all cycles.
func (a *Accounting) Total() uint64 {
	var t uint64
	for _, v := range a.byComp {
		t += v
	}
	return t
}

// RecordingTotal returns cycles attributable to recording (hardware and
// software).
func (a *Accounting) RecordingTotal() uint64 {
	var t uint64
	for c := Component(0); c < NumComponents; c++ {
		if c.IsRecording() {
			t += a.byComp[c]
		}
	}
	return t
}

// SoftwareRecordingTotal returns recording cycles excluding the hardware
// component — the Capo3 software-stack share.
func (a *Accounting) SoftwareRecordingTotal() uint64 {
	return a.RecordingTotal() - a.byComp[CompRecHardware]
}

// Breakdown returns a copy of the per-component cycle counts.
func (a *Accounting) Breakdown() [NumComponents]uint64 { return a.byComp }
