package core

import (
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
	return &Salvaged{Bundle: b, Report: rep}, nil
}

// HasCheckpoint reports whether a flight-recorder checkpoint survived
// inside the salvaged prefix.
func (s *Salvaged) HasCheckpoint() bool { return len(s.Bundle.IntervalCheckpoints) > 0 }

// Tail returns the flight-recorder tail bundle: the last surviving
// checkpoint plus only the salvaged log entries after it. Like the full
// salvaged bundle, the tail is Partial when the stream was torn.
func (s *Salvaged) Tail() (*Bundle, error) {
	return Tail(s.Bundle)
}
