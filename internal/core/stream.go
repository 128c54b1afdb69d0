package core

import (
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/segment"
)

// StreamRecord records prog under cfg while streaming the session to w
// as a segmented, checksummed stream (see internal/segment). The
// returned bundle is the same complete recording Record would produce;
// the stream is its crash-consistent on-the-wire twin — if the recorder
// had died mid-run, SalvageStream could still recover a consistent
// prefix from whatever reached w.
func StreamRecord(prog *isa.Program, cfg machine.Config, w io.Writer) (*Bundle, error) {
	cfg.StreamTo = w
	return Record(prog, cfg)
}

// Salvaged is a recording recovered from a (possibly damaged) segmented
// stream.
type Salvaged struct {
	// Bundle is the reconstructed recording. Complete streams yield a
	// normal bundle; torn streams yield a Partial one (validated log
	// prefix, no reference final state).
	Bundle *Bundle
	// Report describes what the salvage pass kept and why it stopped.
	Report *segment.Report
}

// SalvageStream scans a segmented stream, discards any torn or corrupt
// suffix, and reconstructs the longest consistent recording prefix. It
// errors only when no usable manifest exists; lesser damage yields a
// Partial bundle plus a report describing the cut.
func SalvageStream(data []byte) (*Salvaged, error) {
	st, rep, err := segment.Salvage(data)
	if err != nil {
		return nil, err
	}
	if st.Manifest.BaseCheckpoint && st.Base == nil {
		// A windowed stream whose history was evicted is only replayable
		// from its base checkpoint; losing the base loses the recording.
		return nil, fmt.Errorf("core: windowed stream lost its base checkpoint: %w", segment.ErrTruncated)
	}
	b := &Bundle{
		ProgramName:         st.Manifest.ProgramName,
		Threads:             st.Manifest.Threads,
		StackWordsPerThread: st.Manifest.StackWordsPerThread,
		CountRepIterations:  st.Manifest.CountRepIterations,
		ChunkLogs:           st.ChunkLogs,
		InputLog:            st.InputLog,
		Partial:             !rep.Complete,
	}
	if st.Final != nil {
		b.MemChecksum = st.Final.MemChecksum
		b.Output = st.Final.Output
		b.FinalContexts = st.Final.FinalContexts
		b.RetiredPerThread = st.Final.RetiredPerThread
	}
	// Every checkpoint that survived inside the salvaged prefix becomes
	// an interval partition point; truncation (if any) lands in the final
	// interval because unusable checkpoints were already dropped.
	b.IntervalCheckpoints = st.Checkpoints
	if st.Base != nil {
		// Replay-from-window-base: the retained logs start at the base
		// checkpoint, so the bundle carries its snapshot as the initial
		// state (exactly like a flight-recorder tail bundle). The base
		// also sits at IntervalCheckpoints[0]; partitioning skips it as a
		// non-advancing cut and the remaining checkpoints still split the
		// window for parallel replay.
		b.Checkpoint = &st.Base.Snapshot
	}
	return &Salvaged{Bundle: b, Report: rep}, nil
}

// HasCheckpoint reports whether a flight-recorder checkpoint survived
// inside the salvaged prefix.
func (s *Salvaged) HasCheckpoint() bool { return len(s.Bundle.IntervalCheckpoints) > 0 }

// Window returns the stream's retention window in checkpoint intervals
// (0: unbounded stream).
func (s *Salvaged) Window() uint64 { return s.Report.Window }

// WindowBase reports the retention window's base checkpoint: the
// retired-instruction count replay resumes from, and whether the stream
// had evicted history at all (false for unbounded streams and windowed
// streams young enough to still reach back to program start).
func (s *Salvaged) WindowBase() (retiredAt uint64, ok bool) {
	return s.Report.BaseRetired, s.Report.HasBase
}

// Tail returns the flight-recorder tail bundle: the last surviving
// checkpoint plus only the salvaged log entries after it. Like the full
// salvaged bundle, the tail is Partial when the stream was torn.
func (s *Salvaged) Tail() (*Bundle, error) {
	return Tail(s.Bundle)
}
