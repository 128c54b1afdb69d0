// Package races implements an offline two-phase data-race detector over
// a QuickRec recording, the analysis the paper's authors run on the
// prototype's logs: the chunk logs already encode which code regions ran
// concurrently, and the captured Bloom signatures encode (conservatively)
// which addresses each region touched, so racy chunk pairs can be
// screened without re-executing anything. A deterministic replay with
// exact access tracing then confirms or discards each candidate.
//
// Phase 1 (screening): walk the per-thread chunk logs, enumerate
// Lamport-concurrent chunk pairs on different threads, and test their
// serialized read/write signatures for intersection. Bloom filters admit
// false positives but never false negatives, so the candidate set is a
// superset of the truly conflicting concurrent pairs. Screening is local
// bookkeeping and always runs in the caller's process.
//
// Phase 2 (confirmation): replay the recording with access tracing,
// rebuild the happens-before order from the synchronization accesses
// (atomics and futexes), and report the exact unordered conflicting
// access pairs inside candidate chunk pairs — instruction-level race
// reports with thread, PC and address. Confirmation only ever shrinks
// the candidate set; the surviving fraction measures the signatures'
// false-positive rate. The traced replay is the one part an executor
// may ship to remote workers, one checkpoint interval per job.
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

// screenBlockSize tiles the concurrent-pair list into local pool tasks.
const screenBlockSize = 2048

// screen runs the detector's first phase over a recorded bundle: every
// Lamport-concurrent cross-thread chunk pair whose signatures intersect
// becomes a candidate, and the concurrent-pair count comes back beside
// them. No re-execution happens; the cost is linear in the log volume
// plus the number of concurrent pairs. The pair enumeration and the
// per-block intersections fan out over a bounded worker pool
// (dispatch.Resolve's convention); candidates are collected into
// per-block slots and concatenated in block (= pair) order, so the
// result is identical for every worker count. Returns an error (never a
// panic) when the bundle lacks signature logs or carries corrupt or
// geometry-mismatched signatures.
func screen(b *core.Bundle, workers int) ([]Candidate, int, error) {
	decoded, err := decodeSigLogs(b)
	if err != nil {
		return nil, 0, err
	}
	pairs := analysis.ConcurrentPairs(b.ChunkLogs, workers)
	perBlock := make([][]Candidate, (len(pairs)+screenBlockSize-1)/screenBlockSize)
	// Run never fails, so neither can the local pool.
	_ = dispatch.Local{Workers: workers}.Execute(dispatch.Spec{
		Tasks: len(perBlock),
		Run: func(bi int) error {
			lo := bi * screenBlockSize
			perBlock[bi] = screenBlock(decoded, pairs[lo:min(lo+screenBlockSize, len(pairs))])
			return nil
		},
	})
	var out []Candidate
	for _, cands := range perBlock {
		out = append(out, cands...)
	}
	return out, len(pairs), nil
}

// screenBlock intersects the signatures of one block of pairs, in pair
// order.
func screenBlock(decoded [][]chunkSigs, block []analysis.ChunkPair) []Candidate {
	var out []Candidate
	for _, pair := range block {
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
