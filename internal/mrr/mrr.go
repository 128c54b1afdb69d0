// Package mrr implements the Memory Race Recorder, the per-core recording
// hardware QuickRec adds to each Pentium core. The MRR divides each
// thread's execution into chunks and logs, per chunk, an instruction
// count, a Lamport timestamp and a termination reason — enough for a
// replayer to reconstruct the recorded memory interleaving.
//
// Mechanics, following the paper's design:
//
//   - Two Bloom-filter signatures track the cache-line addresses read and
//     written by the current chunk.
//   - Incoming coherence snoops are tested against the signatures; a hit
//     is an inter-thread conflict (RAW/WAR/WAW) and terminates the chunk,
//     serializing it before the requester's current chunk.
//   - Every snoop is acknowledged with the core's current Lamport clock;
//     the requester raises its clock to the maximum acknowledgement. This
//     "timestamp piggybacking on coherence messages" transitively orders
//     dependencies that flow through memory as well as cache-to-cache.
//   - Chunks also terminate on signature saturation, eviction of a
//     signature-resident line (the prototype's snoop filter would hide
//     later conflicts on it), instruction-counter saturation, syscalls,
//     signal delivery and context switches.
//   - REP string instructions may be split by a chunk boundary; the
//     entry's RepResidue records how many iterations had completed.
//
// Terminations triggered by the core's own activity mid-instruction
// (signature saturation, self-inflicted evictions) are deferred to the
// next retirement or REP-iteration boundary so an instruction's memory
// accesses always land in the same chunk that retires it — the invariant
// replay depends on.
package mrr

import (
	"repro/internal/chunk"
	"repro/internal/signature"
	"repro/internal/stats"
)

// Config parameterises one core's recorder.
type Config struct {
	// ReadSig and WriteSig configure the two address signatures.
	ReadSig, WriteSig signature.Config
	// MaxChunkInstr saturates the chunk instruction counter (CTR);
	// reaching it terminates the chunk. Must be positive.
	MaxChunkInstr uint64
	// TerminateOnEviction mirrors the prototype: evicting a line that is
	// present in either signature closes the chunk. Our broadcast bus
	// would remain sound without it; the prototype's snoop filtering
	// would not.
	TerminateOnEviction bool
	// TrackStats enables chunk-size and reason accounting.
	TrackStats bool
	// DropRepResidue zeroes the REP residue field in emitted entries.
	// Ablation-only (experiment A3): demonstrates that replay diverges
	// without the paper's partial-instruction logging.
	DropRepResidue bool
	// CountRepIterations makes the chunk counter tick per REP iteration
	// as well as per retired instruction — the way a hardware
	// performance counter counts, as opposed to the architectural
	// counting a software replayer does naturally. The paper's "lessons
	// learned" discuss exactly this mismatch: the replayer must adopt
	// the hardware's convention or chunks cannot be positioned
	// (experiment A5).
	CountRepIterations bool
}

// DefaultConfig returns the prototype-like configuration: 1024-bit
// signatures saturating at 192 lines and a 20-bit chunk counter.
func DefaultConfig() Config {
	return Config{
		ReadSig:             signature.DefaultConfig(),
		WriteSig:            signature.DefaultConfig(),
		MaxChunkInstr:       1 << 20,
		TerminateOnEviction: true,
		TrackStats:          true,
	}
}

// Stats aggregates recording activity for experiments.
type Stats struct {
	// Chunks counts emitted chunk entries.
	Chunks uint64
	// Reasons tallies terminations by chunk.Reason.
	Reasons stats.Counter
	// ChunkSizes is the distribution of chunk instruction counts.
	ChunkSizes stats.Histogram
	// SnoopHits counts conflicting snoops (chunk-terminating).
	SnoopHits uint64
	// Snoops counts all snoops observed.
	Snoops uint64
	// SigTests/SigHits/SigFalseHits aggregate signature lookups across
	// both filters (FalseHits needs TrackExact); refreshed by Stats().
	SigTests     uint64
	SigHits      uint64
	SigFalseHits uint64
}

// Recorder is one core's MRR instance. It implements cache.Listener so
// the cache model feeds it coherence events directly.
type Recorder struct {
	cfg      Config
	readSig  *signature.Signature
	writeSig *signature.Signature

	ctr      uint64 // instructions retired in the open chunk
	clock    uint64 // Lamport clock
	progress bool   // open chunk has retired instructions or REP ticks
	pending  chunk.Reason

	enabled bool
	sink    func(chunk.Entry)
	sigSink func(read, write []byte)
	residue func() (active bool, done uint64)

	stats Stats
}

// New returns a recorder. It starts disabled with no sink; the kernel
// model enables it when a recorded thread is scheduled.
func New(cfg Config) *Recorder {
	if cfg.MaxChunkInstr == 0 {
		panic("mrr: MaxChunkInstr must be positive")
	}
	return &Recorder{
		cfg:      cfg,
		readSig:  signature.New(cfg.ReadSig),
		writeSig: signature.New(cfg.WriteSig),
		residue:  func() (bool, uint64) { return false, 0 },
	}
}

// SetResidueFunc wires the query for the running core's in-flight REP
// state, sampled at chunk termination.
func (r *Recorder) SetResidueFunc(f func() (bool, uint64)) { r.residue = f }

// SetSink directs emitted chunk entries to the current thread's log
// buffer. A nil sink discards entries.
func (r *Recorder) SetSink(sink func(chunk.Entry)) { r.sink = sink }

// SetSigSink captures the read/write signature contents of every emitted
// chunk, serialized at the moment of termination (before the filters are
// cleared for the next chunk). A nil sink disables capture. The paper's
// prototype exposes the signatures through the chunk log for offline
// conflict analysis; this is that tap.
func (r *Recorder) SetSigSink(sink func(read, write []byte)) { r.sigSink = sink }

// SetEnabled turns recording on or off (kernel entry/exit, unrecorded
// threads). The Lamport clock keeps advancing regardless: it is hardware
// state, not recording state.
func (r *Recorder) SetEnabled(on bool) { r.enabled = on }

// Clock returns the current Lamport clock.
func (r *Recorder) Clock() uint64 { return r.clock }

// RaiseClock lifts the clock to at least v. The kernel uses this when
// scheduling a thread onto the core, restoring the thread's saved clock
// so its chunk timestamps stay monotonic across migrations.
func (r *Recorder) RaiseClock(v uint64) {
	if v > r.clock {
		r.clock = v
	}
}

// StampInput allocates a timestamp for a kernel input-copy event (an
// atomic kernel-mode access burst, e.g. copy_to_user of syscall results).
// The event is serialized like a zero-instruction chunk: it takes the
// current clock and advances it, so user chunks that depend on the copied
// data order strictly after it.
func (r *Recorder) StampInput() uint64 {
	ts := r.clock
	r.clock++
	return ts
}

// OnRetire notes one retired instruction, then applies any deferred
// termination or CTR saturation.
func (r *Recorder) OnRetire() {
	if !r.enabled {
		return
	}
	r.ctr++
	r.progress = true
	if r.pending != chunk.ReasonNone {
		reason := r.pending
		r.pending = chunk.ReasonNone
		r.terminate(reason)
		return
	}
	if r.ctr >= r.cfg.MaxChunkInstr {
		r.terminate(chunk.ReasonCTROverflow)
	}
}

// OnRepTick notes one completed iteration of an in-flight REP
// instruction, then applies any deferred termination. The iteration's
// accesses and residue belong to the closing chunk. Under hardware-style
// counting (CountRepIterations) the tick also advances the CTR.
func (r *Recorder) OnRepTick() {
	if !r.enabled {
		return
	}
	r.progress = true
	if r.cfg.CountRepIterations {
		r.ctr++
	}
	if r.pending != chunk.ReasonNone {
		reason := r.pending
		r.pending = chunk.ReasonNone
		r.terminate(reason)
		return
	}
	if r.cfg.CountRepIterations && r.ctr >= r.cfg.MaxChunkInstr {
		r.terminate(chunk.ReasonCTROverflow)
	}
}

// Terminate closes the open chunk for an external reason: syscall entry,
// signal delivery, context switch, or final flush. Safe to call when the
// chunk is empty (no entry is emitted, but termination state is reset).
func (r *Recorder) Terminate(reason chunk.Reason) {
	if !r.enabled {
		return
	}
	r.pending = chunk.ReasonNone
	r.terminate(reason)
}

// terminate emits the chunk entry (unless the chunk is empty) and resets
// chunk state. The entry takes the current clock as its timestamp; the
// clock then advances so later chunks — locally or on acknowledging
// remotes — order strictly after it.
func (r *Recorder) terminate(reason chunk.Reason) {
	repActive, repDone := r.residue()
	if !r.progress {
		// Nothing retired and no REP progress: empty chunk, no entry.
		// Signatures must be empty too (accesses imply progress marks at
		// the enclosing retire/tick), so just clear defensively.
		r.readSig.Clear()
		r.writeSig.Clear()
		r.ctr = 0
		return
	}
	e := chunk.Entry{Size: r.ctr, TS: r.clock, Reason: reason}
	if repActive && !r.cfg.DropRepResidue {
		e.RepResidue = repDone
	}
	if r.sink != nil {
		r.sink(e)
	}
	if r.sigSink != nil {
		// Serialize while the filters still hold this chunk's addresses;
		// Clear below wipes them. Empty chunks return early above, so sig
		// pairs stay 1:1 with emitted entries.
		r.sigSink(r.readSig.Marshal(), r.writeSig.Marshal())
	}
	r.clock++
	r.ctr = 0
	r.progress = false
	r.readSig.Clear()
	r.writeSig.Clear()
	if r.cfg.TrackStats {
		r.stats.Chunks++
		r.stats.Reasons.Inc(int(reason))
		r.stats.ChunkSizes.Add(e.Size)
	}
}

// OnLocalAccess implements cache.Listener: inserts the line into the
// appropriate signature; saturation defers a chunk termination to the
// next retire/tick boundary.
func (r *Recorder) OnLocalAccess(line uint64, write bool) {
	if !r.enabled {
		return
	}
	var saturated bool
	if write {
		saturated = r.writeSig.Insert(line)
	} else {
		saturated = r.readSig.Insert(line)
	}
	if saturated && r.pending == chunk.ReasonNone {
		r.pending = chunk.ReasonSigOverflow
	}
}

// OnSnoop implements cache.Listener: tests the remote request against the
// signatures, terminates the chunk on a conflict, and acknowledges with
// the (possibly just advanced) Lamport clock. Snoops arrive at
// instruction boundaries of this core (the simulated bus is synchronous),
// so conflict terminations are immediate, not deferred.
func (r *Recorder) OnSnoop(line uint64, exclusive bool) uint64 {
	if r.cfg.TrackStats {
		r.stats.Snoops++
	}
	if r.enabled {
		var reason chunk.Reason
		if exclusive {
			// Remote write: check WAW first (write signature), then WAR.
			if r.writeSig.Test(line) {
				reason = chunk.ReasonConflictWAW
			} else if r.readSig.Test(line) {
				reason = chunk.ReasonConflictWAR
			}
		} else if r.writeSig.Test(line) {
			// Remote read of a line we wrote: RAW dependence.
			reason = chunk.ReasonConflictRAW
		}
		if reason != chunk.ReasonNone {
			if r.cfg.TrackStats {
				r.stats.SnoopHits++
			}
			r.terminate(reason)
		}
	}
	return r.clock
}

// OnEvict implements cache.Listener: losing a signature-resident line
// schedules a chunk termination (configurable).
func (r *Recorder) OnEvict(line uint64, _ bool) {
	if !r.enabled || !r.cfg.TerminateOnEviction {
		return
	}
	if r.readSig.Test(line) || r.writeSig.Test(line) {
		if r.pending == chunk.ReasonNone {
			r.pending = chunk.ReasonEviction
		}
	}
}

// OnBusAck implements cache.Listener: raises the clock to the maximum
// snoop acknowledgement of this core's own bus transaction, ordering the
// current chunk after every chunk the acknowledgers have closed.
func (r *Recorder) OnBusAck(maxClock uint64) {
	if maxClock > r.clock {
		r.clock = maxClock
	}
}

// OpenChunkInstrs returns the instruction count of the open chunk.
func (r *Recorder) OpenChunkInstrs() uint64 { return r.ctr }

// Stats returns a pointer to the recorder's accounting (live; read after
// the run completes). Signature lookup counters are refreshed on call.
func (r *Recorder) Stats() *Stats {
	r.stats.SigTests, r.stats.SigHits, r.stats.SigFalseHits = r.SigStats()
	return &r.stats
}

// SigOccupancy reports current read/write signature occupancy, for
// ablation experiments.
func (r *Recorder) SigOccupancy() (read, write float64) {
	return r.readSig.Occupancy(), r.writeSig.Occupancy()
}

// SigStats reports lifetime signature snoop-test accounting summed over
// both signatures. FalseHits is populated only when the signatures were
// configured with TrackExact (experiment A2's false-conflict sweep).
func (r *Recorder) SigStats() (tests, hits, falseHits uint64) {
	rt, rh, rf := r.readSig.Stats()
	wt, wh, wf := r.writeSig.Stats()
	return rt + wt, rh + wh, rf + wf
}
