// Package fleet plugs remote worker processes into the dispatch layer:
// a Client is a dispatch.Executor that ships job envelopes to an ingest
// server's job broker, where attached quickrecd worker processes pull
// them, re-derive the work from a content-addressed bundle, and push
// results back. Because every job names its work by (digest, tiling
// coordinates) and every merge is index-ordered, a fleet run's output
// is bit-identical to a serial or local-parallel run of the same
// analysis — the distribution is invisible in the results.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/ingest"
	"repro/internal/isa"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/wire"
)

// Client is a connection to a fleet server's job broker, usable as a
// dispatch.Executor. Not safe for concurrent Executes; sequential use
// across multiple Execute calls (a replay, then a race detection) is the
// intended shape.
type Client struct {
	addr   string
	sub    *ingest.Submitter
	nextID uint64 // job IDs are unique across the session's Executes
}

// Dial attaches to the fleet server at addr as a job submitter.
func Dial(addr string) (*Client, error) {
	sub, err := ingest.DialSubmitter(addr)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, sub: sub}, nil
}

// Close severs the session; unfinished jobs are dropped server-side.
func (c *Client) Close() error { return c.sub.Close() }

// Name identifies the executor in diagnostics.
func (c *Client) Name() string { return "fleet(" + c.addr + ")" }

// Execute implements dispatch.Executor: every task's job envelope goes
// on the broker's board, results absorb as they complete (any order —
// the Spec contract makes merges index-addressed), and the error
// reported is the lowest-indexed failure, matching dispatch.Local byte
// for byte.
func (c *Client) Execute(spec dispatch.Spec) error {
	if spec.Job == nil || spec.Absorb == nil {
		return dispatch.ErrNotRemotable
	}
	base := c.nextID
	c.nextID += uint64(spec.Tasks)

	errIdx := spec.Tasks // lowest failing index seen so far
	var firstErr error
	record := func(i int, err error) {
		if i < errIdx {
			errIdx, firstErr = i, err
		}
	}

	inFlight := 0
	for i := 0; i < spec.Tasks; i++ {
		job, err := spec.Job(i)
		if err != nil {
			record(i, err)
			continue
		}
		var body wire.Appender
		dispatch.AppendJob(&body, job)
		if err := c.sub.Submit(base+uint64(i), body.Buf); err != nil {
			// The session is broken; anything already submitted has no
			// reader. Report the transport fault for the earliest task.
			record(i, err)
			return firstErr
		}
		inFlight++
	}

	for ; inFlight > 0; inFlight-- {
		id, data, errMsg, err := c.sub.Next()
		if err != nil {
			return err // transport fault: results are gone, fail the run
		}
		if id < base || id >= base+uint64(spec.Tasks) {
			return fmt.Errorf("fleet: result for unknown job id %d", id)
		}
		i := int(id - base)
		if errMsg != "" {
			record(i, &dispatch.RemoteError{Msg: errMsg})
			continue
		}
		if err := spec.Absorb(i, data); err != nil {
			record(i, err)
		}
	}
	return firstErr
}

// Upload marshals the bundle and stores it on the fleet server under
// the reserved fleet tenant, returning its content digest — the address
// every job envelope will carry.
func (c *Client) Upload(b *core.Bundle) (string, error) {
	digest, _, _, err := ingest.Upload(c.addr, ingest.FleetTenant, b.Marshal(), 3, 50*time.Millisecond)
	if err != nil {
		return "", fmt.Errorf("fleet: upload bundle: %w", err)
	}
	return digest, nil
}

// Replay replays the bundle across the fleet: upload once, then ship
// one job per checkpoint interval. The Result is bit-identical to
// core.Replay.
func (c *Client) Replay(prog *isa.Program, b *core.Bundle) (*replay.Result, error) {
	digest, err := c.Upload(b)
	if err != nil {
		return nil, err
	}
	return core.ReplayDistributed(prog, b, c, digest)
}

// Races runs the two-phase race detector across the fleet: the client
// screens, one trace job per checkpoint interval ships, each interval
// traced once by one worker, and the client confirms races over the
// merged traces. The Report is bit-identical to races.Detect.
func (c *Client) Races(prog *isa.Program, b *core.Bundle) (*races.Report, error) {
	digest, err := c.Upload(b)
	if err != nil {
		return nil, err
	}
	return races.DetectExec(prog, b, c, digest)
}
