package harness

import (
	"bytes"
	"fmt"
	"os"
	"reflect"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/signature"
	"repro/internal/workload"
)

// properties records one matrix point's metamorphic property outcomes
// into the report.
type properties struct {
	rep      *Report
	workload string
	cores    int
}

// add records one property's outcome; a nil err is a pass.
func (p properties) add(prop string, err error) {
	r := MetaResult{Workload: p.workload, Cores: p.cores, Property: prop}
	if err != nil {
		r.Err = err.Error()
	}
	p.rep.Meta = append(p.rep.Meta, r)
}

// checkProperties checks every metamorphic property at one matrix point
// against the recording rec made under cfg.
func checkProperties(p properties, prog *isa.Program, cfg machine.Config, rec *core.Bundle) {
	checkMetamorphic(p, prog, cfg, rec)
	p.add(PropParallelReplay, checkParallelReplay(prog, cfg))
	p.add(PropDistributed, checkDistributed(prog, cfg))
	if spec, ok := workload.ByName(p.workload); ok && spec.RaceExpectation != "" {
		p.add(PropRaceExpectation, checkRaceExpectation(spec, prog, cfg))
	}
}

// sameReplay compares two replays of one execution field by field:
// memory checksum, output, step, chunk and input counts, final contexts
// and final memory.
func sameReplay(a, b *replay.Result) error {
	if a.MemChecksum != b.MemChecksum {
		return fmt.Errorf("memory checksums differ: %#x vs %#x", a.MemChecksum, b.MemChecksum)
	}
	if !bytes.Equal(a.Output, b.Output) {
		return fmt.Errorf("outputs differ: %d vs %d bytes", len(a.Output), len(b.Output))
	}
	if a.Steps != b.Steps || a.ChunksExecuted != b.ChunksExecuted || a.InputsApplied != b.InputsApplied {
		return fmt.Errorf("counters differ: steps %d/%d chunks %d/%d inputs %d/%d",
			a.Steps, b.Steps, a.ChunksExecuted, b.ChunksExecuted, a.InputsApplied, b.InputsApplied)
	}
	if len(a.FinalContexts) != len(b.FinalContexts) {
		return fmt.Errorf("final contexts differ: %d vs %d threads", len(a.FinalContexts), len(b.FinalContexts))
	}
	for t := range a.FinalContexts {
		if a.FinalContexts[t] != b.FinalContexts[t] {
			return fmt.Errorf("thread %d final context differs", t)
		}
	}
	if !a.FinalMem.Equal(b.FinalMem) {
		return fmt.Errorf("final memory images differ")
	}
	return nil
}

// Metamorphic property names.
const (
	PropRecordDeterminism    = "record-twice-is-identical"
	PropReplayFidelity       = "replay-reaches-recorded-state"
	PropSerializationClosure = "recording-survives-serialization"
	PropReplayDeterminism    = "replay-twice-is-identical"
	PropRaceExpectation      = "race-expectation-holds"
	PropParallelReplay       = "parallel-replay-matches-serial"
	PropDistributed          = "distributed-matches-serial"
	PropReencodeIdentity     = "reencode-is-identity"
)

// checkMetamorphic runs the metamorphic properties against prog under
// cfg, given an already-made recording rec (recorded under cfg).
//
//   - record-twice-is-identical: recording is a pure function of
//     (program, config); a second recording marshals byte-identically.
//   - replay-reaches-recorded-state: replay reproduces the recorded
//     final memory, output and per-thread architectural state.
//   - recording-survives-serialization: marshal→unmarshal is the
//     identity (re-marshal is byte-identical) and the reloaded recording
//     still replays and verifies — a recording on disk is as replayable
//     as one in memory.
//   - replay-twice-is-identical: replay is itself deterministic, the
//     property that makes "replay the replay" debugging sound.
//   - reencode-is-identity: decode followed by re-encode is byte-identical
//     for the bundle and every nested codec — each chunk log under every
//     registered encoding, the input log under both framings, and every
//     captured signature. The per-codec version of serialization closure:
//     it localizes a wire-format asymmetry to the codec that has it.
func checkMetamorphic(p properties, prog *isa.Program, cfg machine.Config, rec *core.Bundle) {
	p.add(PropRecordDeterminism, func() error {
		again, err := core.Record(prog, cfg)
		if err != nil {
			return fmt.Errorf("second recording failed: %w", err)
		}
		a, b := rec.Marshal(), again.Marshal()
		if !bytes.Equal(a, b) {
			return fmt.Errorf("recordings differ: %d vs %d bytes", len(a), len(b))
		}
		return nil
	}())

	p.add(PropReplayFidelity, func() error {
		rr, err := core.Replay(prog, rec)
		if err != nil {
			return err
		}
		return core.Verify(rec, rr)
	}())

	p.add(PropSerializationClosure, func() error {
		data := rec.Marshal()
		loaded, err := core.UnmarshalBundle(data)
		if err != nil {
			return fmt.Errorf("unmarshal: %w", err)
		}
		if !bytes.Equal(loaded.Marshal(), data) {
			return fmt.Errorf("re-marshal is not byte-identical")
		}
		rr, err := core.Replay(prog, loaded)
		if err != nil {
			return fmt.Errorf("replay of reloaded recording: %w", err)
		}
		return core.Verify(loaded, rr)
	}())

	p.add(PropReencodeIdentity, func() error {
		for _, enc := range []chunk.Encoding{chunk.Fixed{}, chunk.Var{}, chunk.Delta{}} {
			for t, l := range rec.ChunkLogs {
				blob := l.Marshal(enc)
				dec, err := chunk.UnmarshalLog(blob)
				if err != nil {
					return fmt.Errorf("chunk log %d (%s): decode: %w", t, enc.Name(), err)
				}
				if !bytes.Equal(dec.Marshal(enc), blob) {
					return fmt.Errorf("chunk log %d (%s): re-encode differs", t, enc.Name())
				}
			}
		}
		blob := rec.InputLog.Marshal()
		il, err := capo.UnmarshalInputLog(blob)
		if err != nil {
			return fmt.Errorf("input log: decode: %w", err)
		}
		if !bytes.Equal(il.Marshal(), blob) {
			return fmt.Errorf("input log: re-encode differs")
		}
		rblob := capo.MarshalRecords(rec.InputLog.Records)
		recs, err := capo.UnmarshalRecords(rblob)
		if err != nil {
			return fmt.Errorf("input records: decode: %w", err)
		}
		if !bytes.Equal(capo.MarshalRecords(recs), rblob) {
			return fmt.Errorf("input records: re-encode differs")
		}
		for t, pairs := range rec.SigLogs {
			for i, p := range pairs {
				for side, raw := range map[string][]byte{"read": p.Read, "write": p.Write} {
					s, err := signature.Unmarshal(raw)
					if err != nil {
						return fmt.Errorf("thread %d sig %d %s: decode: %w", t, i, side, err)
					}
					if !bytes.Equal(s.Marshal(), raw) {
						return fmt.Errorf("thread %d sig %d %s: re-encode differs", t, i, side)
					}
				}
			}
		}
		// Both wire versions: a decoded bundle remembers the format it
		// came from, so decode→re-encode must round-trip byte-identically
		// whether the bytes were v1, uncompressed v2 or compressed v2.
		for _, f := range []core.Format{core.FormatV1, core.FormatV2Raw, core.FormatV2LZ} {
			saved := rec.Format
			rec.Format = f
			data := rec.Marshal()
			rec.Format = saved
			loaded, err := core.UnmarshalBundle(data)
			if err != nil {
				return fmt.Errorf("bundle (%s): decode: %w", f, err)
			}
			if !bytes.Equal(loaded.Marshal(), data) {
				return fmt.Errorf("bundle (%s): re-encode differs", f)
			}
		}
		return nil
	}())

	p.add(PropReplayDeterminism, func() error {
		r1, err := core.Replay(prog, rec)
		if err != nil {
			return err
		}
		r2, err := core.Replay(prog, rec)
		if err != nil {
			return err
		}
		return sameReplay(r1, r2)
	}())
}

// checkParallelReplay pins the parallel replay engine's defining
// property: splitting a checkpointed recording into intervals and
// replaying them on 4 workers produces a Result identical to serial
// replay — state, output, counters, everything. The conformance
// recording is made without checkpoints, so the property records its own
// flight-recorder bundle under the same config.
func checkParallelReplay(prog *isa.Program, cfg machine.Config) error {
	// Cadence low enough that even the short conformance workloads
	// partition into several intervals; a workload too small to cross
	// it even once still gets the 1-vs-4 comparison (both serial),
	// which keeps the Workers plumbing honest without failing
	// vacuously.
	cfg.CheckpointEveryInstrs = 500
	rec, err := core.Record(prog, cfg)
	if err != nil {
		return fmt.Errorf("checkpointed recording failed: %w", err)
	}
	serial, err := core.ReplayWorkers(prog, rec, 1)
	if err != nil {
		return fmt.Errorf("serial replay: %w", err)
	}
	par, err := core.ReplayWorkers(prog, rec, 4)
	if err != nil {
		return fmt.Errorf("parallel replay: %w", err)
	}
	if err := sameReplay(serial, par); err != nil {
		return err
	}
	if err := core.Verify(rec, par); err != nil {
		return fmt.Errorf("parallel replay fails verification: %w", err)
	}
	return nil
}

// checkDistributed pins the fleet executor's defining property:
// shipping a recording's replay intervals and traced race intervals to
// remote workers produces results bit-identical to serial local runs. The property stands up a loopback fleet — an
// ingest server with its job broker plus two in-process workers — per
// cell, records its own checkpointed signature-capturing bundle under
// the cell's config, and compares the fleet replay and race report
// against serial ones field by field.
func checkDistributed(prog *isa.Program, cfg machine.Config) error {
	cfg.CheckpointEveryInstrs = 500
	cfg.CaptureSignatures = true
	rec, err := core.Record(prog, cfg)
	if err != nil {
		return fmt.Errorf("checkpointed recording failed: %w", err)
	}
	dir, err := os.MkdirTemp("", "quickrec-fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scfg := ingest.DefaultConfig()
	scfg.StoreDir = dir
	scfg.Verifiers = 1
	srv, err := ingest.NewServer(scfg)
	if err != nil {
		return fmt.Errorf("fleet server: %w", err)
	}
	go srv.Serve()
	defer srv.Close()
	for i := 0; i < 2; i++ {
		go (&fleet.Worker{Addr: srv.Addr(), Slots: 2}).Run()
	}
	client, err := fleet.Dial(srv.Addr())
	if err != nil {
		return fmt.Errorf("fleet dial: %w", err)
	}
	defer client.Close()

	serial, err := core.ReplayWorkers(prog, rec, 1)
	if err != nil {
		return fmt.Errorf("serial replay: %w", err)
	}
	dist, err := client.Replay(prog, rec)
	if err != nil {
		return fmt.Errorf("distributed replay: %w", err)
	}
	if err := sameReplay(serial, dist); err != nil {
		return err
	}
	if err := core.Verify(rec, dist); err != nil {
		return fmt.Errorf("distributed replay fails verification: %w", err)
	}

	sRep, err := races.Detect(prog, rec)
	if err != nil {
		return fmt.Errorf("serial race detection: %w", err)
	}
	dRep, err := client.Races(prog, rec)
	if err != nil {
		return fmt.Errorf("distributed race detection: %w", err)
	}
	if !reflect.DeepEqual(sRep, dRep) {
		return fmt.Errorf("race reports differ: serial %d races / %d candidates, distributed %d / %d",
			len(sRep.Races), len(sRep.Candidates), len(dRep.Races), len(dRep.Candidates))
	}
	return nil
}

// checkRaceExpectation runs the offline race detector against a
// workload with a declared race status (Spec.RaceExpectation): a "racy"
// workload must yield at least one confirmed race, a "racefree" one
// exactly zero. The conformance recording is made without signature
// capture, so the property records its own capture-enabled bundle under
// the same config.
func checkRaceExpectation(spec workload.Spec, prog *isa.Program, cfg machine.Config) error {
	cfg.CaptureSignatures = true
	rec, err := core.Record(prog, cfg)
	if err != nil {
		return fmt.Errorf("signature-capture recording failed: %w", err)
	}
	rep, err := races.Detect(prog, rec)
	if err != nil {
		return err
	}
	switch spec.RaceExpectation {
	case "racy":
		if len(rep.Races) == 0 {
			return fmt.Errorf("racy workload: %d candidate pairs but no confirmed races",
				len(rep.Candidates))
		}
	case "racefree":
		if len(rep.Races) != 0 {
			return fmt.Errorf("race-free workload: %d confirmed races (first: %+v)",
				len(rep.Races), rep.Races[0])
		}
	default:
		return fmt.Errorf("unknown race expectation %q", spec.RaceExpectation)
	}
	return nil
}
