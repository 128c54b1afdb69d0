// Package races implements an offline two-phase data-race detector over
// a QuickRec recording, the analysis the paper's authors run on the
// prototype's logs: the chunk logs already encode which code regions ran
// concurrently, and the captured Bloom signatures encode (conservatively)
// which addresses each region touched, so racy chunk pairs can be
// screened without re-executing anything. A deterministic replay with
// exact access tracing then confirms or discards each candidate.
//
// Phase 1 (Screen): walk the per-thread chunk logs, enumerate
// Lamport-concurrent chunk pairs on different threads, and test their
// serialized read/write signatures for intersection. Bloom filters admit
// false positives but never false negatives, so the candidate set is a
// superset of the truly conflicting concurrent pairs.
//
// Phase 2 (Detect): replay the recording with access tracing, rebuild
// the happens-before order from the synchronization accesses (atomics
// and futexes), and report the exact unordered conflicting access pairs
// inside candidate chunk pairs — instruction-level race reports with
// thread, PC and address. Confirmation only ever shrinks the candidate
// set; the surviving fraction measures the signatures' false-positive
// rate.
package races

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/signature"
)

// ErrNoSignatures reports a bundle recorded without signature capture.
var ErrNoSignatures = errors.New("races: bundle carries no signature logs (record with CaptureSignatures)")

// Candidate is one screened chunk pair: Lamport-concurrent chunks on
// different threads whose address signatures intersect in at least one
// conflicting direction.
type Candidate struct {
	Pair analysis.ChunkPair `json:"pair"`
	// ReadWrite, WriteRead and WriteWrite say which cross-signature
	// tests hit (A's reads vs B's writes, and so on).
	ReadWrite  bool `json:"read_write"`
	WriteRead  bool `json:"write_read"`
	WriteWrite bool `json:"write_write"`
}

// Screen runs the detector's first phase over a recorded bundle: every
// Lamport-concurrent cross-thread chunk pair whose signatures intersect
// becomes a candidate. No re-execution happens; the cost is linear in
// the log volume plus the number of concurrent pairs. Returns an error
// (never a panic) when the bundle lacks signature logs or carries
// corrupt or geometry-mismatched signatures.
func Screen(b *core.Bundle) ([]Candidate, error) {
	return ScreenWorkers(b, 0)
}

// ScreenWorkers is Screen with the concurrent-pair enumeration and the
// per-block signature intersections fanned out over a bounded worker
// pool (0 or 1 workers: serial, negative: runtime.GOMAXPROCS(0)).
// Candidates are collected into per-block slots and concatenated in
// block (= pair) order, so the result is identical for every worker
// count.
func ScreenWorkers(b *core.Bundle, workers int) ([]Candidate, error) {
	cands, _, err := screen(b, workers)
	return cands, err
}

// ScreenExec is Screen with the per-block intersections dispatched
// through an executor — a fleet executor ships JobScreenBlock envelopes
// referencing the bundle by digest. The candidate list is identical to
// every local run: blocks are a fixed-size tiling of the pair list, and
// the pair list is a pure function of the chunk logs.
func ScreenExec(b *core.Bundle, exec dispatch.Executor, digest string) ([]Candidate, error) {
	cands, _, err := screenExec(b, 0, exec, digest)
	return cands, err
}

// screen implements Screen/ScreenWorkers and additionally returns the
// concurrent-pair count so Detect need not re-enumerate the pairs.
func screen(b *core.Bundle, workers int) ([]Candidate, int, error) {
	return screenExec(b, workers, dispatch.Local{Workers: workers}, "")
}

// screenBlockSize tiles the concurrent-pair list into dispatch tasks.
// The block size is a protocol constant, not a tuning knob: the task
// list must be the same for every executor so local and fleet runs
// screen identical blocks.
const screenBlockSize = 2048

// screenExec runs the screening phase through an executor. workers
// bounds the client-side pair enumeration (remote executors still
// enumerate locally — the pair list sizes the job list).
func screenExec(b *core.Bundle, workers int, exec dispatch.Executor, digest string) ([]Candidate, int, error) {
	decoded, err := decodeSigLogs(b)
	if err != nil {
		return nil, 0, err
	}
	pairs := analysis.ConcurrentPairsWorkers(b.ChunkLogs, workers)
	nblocks := (len(pairs) + screenBlockSize - 1) / screenBlockSize
	perBlock := make([][]Candidate, nblocks)
	err = exec.Execute(dispatch.Spec{
		Tasks: nblocks,
		Run: func(bi int) error {
			perBlock[bi] = screenBlock(decoded, pairs, bi)
			return nil
		},
		Job: func(bi int) (dispatch.Job, error) {
			return dispatch.Job{
				Kind:    dispatch.JobScreenBlock,
				Digest:  digest,
				Payload: encodeScreenJob(bi, len(pairs)),
			}, nil
		},
		Absorb: func(bi int, data []byte) error {
			cands, err := decodeCandidates(data, blockPairs(pairs, bi))
			if err != nil {
				return err
			}
			perBlock[bi] = cands
			return nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	var out []Candidate
	for _, cands := range perBlock {
		out = append(out, cands...)
	}
	return out, len(pairs), nil
}

// screenBlock intersects the signatures of one block of pairs, in pair
// order. Shared by the local Run path and the worker side of
// JobScreenBlock, which is what makes the two bit-identical.
func screenBlock(decoded [][]chunkSigs, pairs []analysis.ChunkPair, bi int) []Candidate {
	var out []Candidate
	for _, pair := range blockPairs(pairs, bi) {
		sa := decoded[pair.ThreadA][pair.ChunkA]
		sb := decoded[pair.ThreadB][pair.ChunkB]
		c := Candidate{
			Pair:       pair,
			ReadWrite:  sa.read.Intersects(sb.write),
			WriteRead:  sa.write.Intersects(sb.read),
			WriteWrite: sa.write.Intersects(sb.write),
		}
		if c.ReadWrite || c.WriteRead || c.WriteWrite {
			out = append(out, c)
		}
	}
	return out
}

// chunkSigs is one chunk's decoded signature pair.
type chunkSigs struct {
	read, write *signature.Signature
}

// decodeSigLogs unmarshals every signature once, validating counts and
// that all filters share one geometry — Intersects panics on mismatch,
// and corrupt input must surface as an error instead.
func decodeSigLogs(b *core.Bundle) ([][]chunkSigs, error) {
	if b.SigLogs == nil {
		return nil, ErrNoSignatures
	}
	if len(b.SigLogs) != len(b.ChunkLogs) {
		return nil, fmt.Errorf("races: %d signature logs for %d chunk logs", len(b.SigLogs), len(b.ChunkLogs))
	}
	var geom signature.Config
	haveGeom := false
	decoded := make([][]chunkSigs, len(b.SigLogs))
	for t, pairs := range b.SigLogs {
		if len(pairs) != b.ChunkLogs[t].Len() {
			return nil, fmt.Errorf("races: thread %d has %d signature pairs for %d chunks",
				t, len(pairs), b.ChunkLogs[t].Len())
		}
		for i, p := range pairs {
			r, err := signature.Unmarshal(p.Read)
			if err != nil {
				return nil, fmt.Errorf("races: thread %d chunk %d read signature: %w", t, i, err)
			}
			w, err := signature.Unmarshal(p.Write)
			if err != nil {
				return nil, fmt.Errorf("races: thread %d chunk %d write signature: %w", t, i, err)
			}
			for _, s := range []*signature.Signature{r, w} {
				cfg := s.Config()
				if !haveGeom {
					geom, haveGeom = cfg, true
				} else if cfg.Bits != geom.Bits || cfg.Hashes != geom.Hashes {
					return nil, fmt.Errorf("races: thread %d chunk %d signature geometry %d/%d differs from %d/%d",
						t, i, cfg.Bits, cfg.Hashes, geom.Bits, geom.Hashes)
				}
			}
			decoded[t] = append(decoded[t], chunkSigs{read: r, write: w})
		}
	}
	return decoded, nil
}
