package races

// Remote race-detection jobs: the wire forms of one screening block
// (JobScreenBlock) and one confirmation address slice (JobConfirmSlice).
// Both payloads carry only tiling coordinates plus a cross-check count —
// a fleet worker holding the same bundle re-derives the pair list, the
// candidate set and the access trace deterministically, so the two
// sides agree on what block bi or slice k means without shipping the
// analysis state.

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/wire"
)

// encodeScreenJob packs one screening block's parameters: the block
// index and the dispatcher's concurrent-pair count, which the worker
// checks against its own enumeration.
func encodeScreenJob(block, totalPairs int) []byte {
	var a wire.Appender
	a.Uvarint(uint64(block))
	a.Uvarint(uint64(totalPairs))
	return a.Buf
}

func decodeScreenJob(data []byte) (block, totalPairs int, err error) {
	c := wire.CursorOf(data)
	bi, err := c.Uvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("races: screen job block: %w", err)
	}
	np, err := c.Uvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("races: screen job pair count: %w", err)
	}
	if err := c.Done(); err != nil {
		return 0, 0, fmt.Errorf("races: screen job trailer: %w", err)
	}
	nblocks := (np + screenBlockSize - 1) / screenBlockSize
	if np > 1<<32 || bi >= nblocks {
		return 0, 0, fmt.Errorf("races: screen job block %d of %d pairs out of range", bi, np)
	}
	return int(bi), int(np), nil
}

// encodeCandidates packs one screening block's result.
func encodeCandidates(cands []Candidate) []byte {
	var a wire.Appender
	a.Uvarint(uint64(len(cands)))
	for _, c := range cands {
		a.Int(c.Pair.ThreadA)
		a.Int(c.Pair.ChunkA)
		a.Int(c.Pair.ThreadB)
		a.Int(c.Pair.ChunkB)
		var flags byte
		if c.ReadWrite {
			flags |= 1
		}
		if c.WriteRead {
			flags |= 2
		}
		if c.WriteWrite {
			flags |= 4
		}
		a.Byte(flags)
	}
	return a.Buf
}

func decodeCandidates(data []byte) ([]Candidate, error) {
	c := wire.CursorOf(data)
	n, err := c.Uvarint()
	if err != nil || n > 1<<24 {
		return nil, fmt.Errorf("races: candidate count: %w", errOr(err, n))
	}
	out := make([]Candidate, 0, n)
	for i := uint64(0); i < n; i++ {
		var cand Candidate
		var fields [4]int
		for f := range fields {
			v, err := c.Uvarint()
			if err != nil {
				return nil, fmt.Errorf("races: candidate %d: %w", i, err)
			}
			fields[f] = int(v)
		}
		cand.Pair = analysis.ChunkPair{
			ThreadA: fields[0], ChunkA: fields[1],
			ThreadB: fields[2], ChunkB: fields[3],
		}
		flags, err := c.Byte()
		if err != nil || flags == 0 || flags > 7 {
			return nil, fmt.Errorf("races: candidate %d flags: %w", i, errOr(err, uint64(flags)))
		}
		cand.ReadWrite = flags&1 != 0
		cand.WriteRead = flags&2 != 0
		cand.WriteWrite = flags&4 != 0
		out = append(out, cand)
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("races: candidate trailer: %w", err)
	}
	return out, nil
}

// encodeConfirmJob packs one confirmation slice's parameters: the slice
// coordinates and the dispatcher's candidate count, which the worker
// checks against its own (re-screened) candidate set.
func encodeConfirmJob(slice, slices, ncands int) []byte {
	var a wire.Appender
	a.Uvarint(uint64(slice))
	a.Uvarint(uint64(slices))
	a.Uvarint(uint64(ncands))
	return a.Buf
}

func decodeConfirmJob(data []byte) (slice, slices, ncands int, err error) {
	c := wire.CursorOf(data)
	k, err := c.Uvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("races: confirm job slice: %w", err)
	}
	n, err := c.Uvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("races: confirm job slice count: %w", err)
	}
	nc, err := c.Uvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("races: confirm job candidate count: %w", err)
	}
	if err := c.Done(); err != nil {
		return 0, 0, 0, fmt.Errorf("races: confirm job trailer: %w", err)
	}
	if n == 0 || n > 1<<16 || k >= n || nc > 1<<24 {
		return 0, 0, 0, fmt.Errorf("races: confirm job slice %d of %d (%d candidates) out of range", k, n, nc)
	}
	return int(k), int(n), int(nc), nil
}

// encodeSliceRaces packs one confirmation slice's result: its races in
// discovery order and the candidate pairs it confirmed.
func encodeSliceRaces(s sliceRaces) []byte {
	var a wire.Appender
	a.Uvarint(uint64(len(s.races)))
	for _, r := range s.races {
		a.U64(r.Addr)
		a.Int(r.ThreadA)
		a.Int(r.PCA)
		a.Int(r.ChunkA)
		a.Bool(r.KindA == "write")
		a.Int(r.ThreadB)
		a.Int(r.PCB)
		a.Int(r.ChunkB)
		a.Bool(r.KindB == "write")
	}
	a.Uvarint(uint64(len(s.confirmed)))
	for _, pk := range s.confirmed {
		a.Int(pk.ta)
		a.Int(pk.ca)
		a.Int(pk.tb)
		a.Int(pk.cb)
	}
	return a.Buf
}

func decodeSliceRaces(data []byte) (sliceRaces, error) {
	var s sliceRaces
	c := wire.CursorOf(data)
	nr, err := c.Uvarint()
	if err != nil || nr > 1<<24 {
		return s, fmt.Errorf("races: slice race count: %w", errOr(err, nr))
	}
	ints := func(dst []*int) error {
		for _, p := range dst {
			v, err := c.Uvarint()
			if err != nil {
				return err
			}
			*p = int(v)
		}
		return nil
	}
	for i := uint64(0); i < nr; i++ {
		var r Race
		if r.Addr, err = c.U64(); err != nil {
			return s, fmt.Errorf("races: slice race %d addr: %w", i, err)
		}
		if err := ints([]*int{&r.ThreadA, &r.PCA, &r.ChunkA}); err != nil {
			return s, fmt.Errorf("races: slice race %d side A: %w", i, err)
		}
		wa, err := c.Byte()
		if err != nil || wa > 1 {
			return s, fmt.Errorf("races: slice race %d kind A: %w", i, errOr(err, uint64(wa)))
		}
		r.KindA = kindName(wa != 0)
		if err := ints([]*int{&r.ThreadB, &r.PCB, &r.ChunkB}); err != nil {
			return s, fmt.Errorf("races: slice race %d side B: %w", i, err)
		}
		wb, err := c.Byte()
		if err != nil || wb > 1 {
			return s, fmt.Errorf("races: slice race %d kind B: %w", i, errOr(err, uint64(wb)))
		}
		r.KindB = kindName(wb != 0)
		s.races = append(s.races, r)
	}
	np, err := c.Uvarint()
	if err != nil || np > 1<<24 {
		return s, fmt.Errorf("races: slice confirmed count: %w", errOr(err, np))
	}
	for i := uint64(0); i < np; i++ {
		var pk pairKey
		if err := ints([]*int{&pk.ta, &pk.ca, &pk.tb, &pk.cb}); err != nil {
			return s, fmt.Errorf("races: slice confirmed pair %d: %w", i, err)
		}
		s.confirmed = append(s.confirmed, pk)
	}
	if err := c.Done(); err != nil {
		return s, fmt.Errorf("races: slice result trailer: %w", err)
	}
	return s, nil
}

// errOr turns a count-overflow (nil err but out-of-range value) into an
// error so validation sites can share one %w format.
func errOr(err error, v uint64) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("value %d out of range", v)
}

// ExecScreenJob is the worker side of a JobScreenBlock: re-derive the
// concurrent-pair list from the bundle (ConcurrentPairs is a pure
// function of the chunk logs), cross-check the dispatcher's pair count,
// and screen the one block. Serial — the fleet's parallelism is across
// jobs, not inside them.
func ExecScreenJob(b *core.Bundle, payload []byte) ([]byte, error) {
	block, totalPairs, err := decodeScreenJob(payload)
	if err != nil {
		return nil, err
	}
	decoded, err := decodeSigLogs(b)
	if err != nil {
		return nil, err
	}
	pairs := analysis.ConcurrentPairs(b.ChunkLogs)
	if len(pairs) != totalPairs {
		return nil, fmt.Errorf("races: job expects %d concurrent pairs, bundle yields %d (bundle mismatch?)",
			totalPairs, len(pairs))
	}
	nblocks := (len(pairs) + screenBlockSize - 1) / screenBlockSize
	if block >= nblocks {
		return nil, fmt.Errorf("races: screen block %d of %d out of range", block, nblocks)
	}
	return encodeCandidates(screenBlock(decoded, pairs, block)), nil
}

// ExecConfirmJob is the worker side of a JobConfirmSlice: re-screen the
// bundle serially to rebuild the candidate set, cross-check its size,
// redo the access-traced replay, and confirm the one address slice. The
// trace and screen are deterministic, so every worker (and the
// dispatcher's local path) sees the same addresses in the same order.
func ExecConfirmJob(prog *isa.Program, b *core.Bundle, payload []byte) ([]byte, error) {
	slice, slices, ncands, err := decodeConfirmJob(payload)
	if err != nil {
		return nil, err
	}
	cands, _, err := screen(b, 1)
	if err != nil {
		return nil, err
	}
	if len(cands) != ncands {
		return nil, fmt.Errorf("races: job expects %d candidates, bundle screens to %d (bundle mismatch?)",
			ncands, len(cands))
	}
	st, err := traceConfirmState(prog, b, cands)
	if err != nil {
		return nil, err
	}
	return encodeSliceRaces(st.confirmSlice(slice, slices)), nil
}
