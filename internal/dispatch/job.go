package dispatch

import (
	"fmt"

	"repro/internal/wire"
)

// Job kinds. The dispatch layer does not interpret them — they select
// which domain codec (replay interval, traced race interval) a fleet
// worker routes the payload through. Kind 2 is retired: DecodeJob
// refuses it like any unknown kind, so a job of an older submitter fails
// instead of reaching the wrong codec.
const (
	// JobReplayInterval replays one checkpoint-partitioned interval of a
	// recording (payload: interval index + expected interval count).
	JobReplayInterval uint8 = 1
	// JobTraceInterval replays one checkpoint interval with access
	// tracing, filtered to the race candidates' chunks (payload: interval
	// index, interval count and candidate count; result: the interval's
	// compact access trace).
	JobTraceInterval uint8 = 3
)

// Job is the typed, wire-encoded envelope a remote worker executes: a
// kind routing it to a domain codec, the content address of the bundle
// it works on, and an opaque kind-specific parameter payload.
type Job struct {
	Kind    uint8
	Digest  string // content address (lowercase hex SHA-256) of the bundle
	Payload []byte
}

// maxJobPayload bounds one job's parameter payload. Job parameters are
// small (indices and counts); anything large travels by digest.
const maxJobPayload = 1 << 16

// AppendJob encodes j.
func AppendJob(a *wire.Appender, j Job) {
	a.Byte(j.Kind)
	a.String(j.Digest)
	a.Blob(j.Payload)
}

// DecodeJob decodes one Job, validating bounds. The payload aliases
// data.
func DecodeJob(data []byte) (Job, error) {
	var j Job
	c := wire.CursorOf(data)
	kind, err := c.Byte()
	if err != nil {
		return j, fmt.Errorf("dispatch: job kind: %w", err)
	}
	if kind != JobReplayInterval && kind != JobTraceInterval {
		return j, fmt.Errorf("dispatch: unknown job kind %d", kind)
	}
	j.Kind = kind
	d, err := c.View()
	if err != nil {
		return j, fmt.Errorf("dispatch: job digest: %w", err)
	}
	if len(d) == 0 || len(d) > 2*64 {
		return j, fmt.Errorf("dispatch: job digest length %d", len(d))
	}
	j.Digest = string(d)
	p, err := c.View()
	if err != nil {
		return j, fmt.Errorf("dispatch: job payload: %w", err)
	}
	if len(p) > maxJobPayload {
		return j, fmt.Errorf("dispatch: job payload %d bytes exceeds %d", len(p), maxJobPayload)
	}
	j.Payload = p
	if err := c.Done(); err != nil {
		return j, fmt.Errorf("dispatch: job trailer: %w", err)
	}
	return j, nil
}

// RemoteError is a task failure that happened on a fleet worker,
// reconstructed from the error field of its RESULT frame. The original
// typed error (BoundaryError, DivergenceError, ...) does not survive the
// wire; its rendered message does, so earliest-error selection still
// reports the same text a local run would.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "dispatch: remote task failed: " + e.Msg }
