package wire

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// Deterministic byte-oriented LZ77 for block payloads. The format must
// never change once recordings are stored, so this is deliberately a
// fixed, dependency-free codec rather than compress/flate (whose output
// bytes may differ across Go releases, which would break golden-fixture
// byte identity) — determinism here is a format property, not a nicety.
//
// Token stream, repeated until rawLen output bytes exist:
//
//	litLen uvarint | literals[litLen]            (always present)
//	matchLen uvarint | dist uvarint              (absent when the
//	                                              literals completed
//	                                              the output)
//
// matchLen ≥ lzMinMatch, 1 ≤ dist ≤ bytes-produced-so-far; matches may
// overlap their own output (dist < matchLen is run-length encoding).
// The window is unbounded: a match may reach the start of the block,
// which is what dedupes an input-log data arena against an output blob
// hundreds of kilobytes earlier.
//
// The compressor is greedy with a single-slot hash table over 4-byte
// windows. That is enough for the short-range redundancy the v2 bundle
// layout leaves behind (adjacent columns, per-thread chunk logs);
// long-range structural duplication is removed by the layout itself
// before bytes reach this layer. The parse is part of the format, since
// stored digests cover encoded bytes: TestLZMatchesReference holds the
// encoder to the original byte-at-a-time one, token for token.

const (
	lzMinMatch  = 4
	lzHashBits  = 15
	lzHashMul   = 2654435761 // Knuth multiplicative hash constant
	lzTableSize = 1 << lzHashBits
)

func lzHash(u uint32) uint32 {
	return (u * lzHashMul) >> (32 - lzHashBits)
}

func lzLoad32(src []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(src[i:])
}

// lzTable maps each window hash to the last position it was seen at.
type lzTable [lzTableSize]int32

// lzTables recycles hash tables, so an encode costs what its input
// costs rather than a fresh 128 KiB table per call.
var lzTables = sync.Pool{New: func() any { return new(lzTable) }}

// lzAppend appends the token stream for src onto dst. Output is a pure
// function of src.
func lzAppend(dst []byte, src []byte) []byte {
	if len(src) == 0 {
		return dst // zero declared bytes decode from zero tokens
	}
	a := AppenderOf(dst)
	if len(src) < lzMinMatch {
		a.Uvarint(uint64(len(src)))
		a.Raw(src)
		return a.Buf
	}
	table := lzTables.Get().(*lzTable)
	// Every hash starts at position 0, and the parse may match there:
	// the format was defined by an encoder that zeroed a fresh table.
	clear(table[:])
	lit := 0 // start of the pending literal run
	i := 1   // position 0 can never match (no earlier bytes)
	for i+lzMinMatch <= len(src) {
		cur := lzLoad32(src, i)
		h := lzHash(cur)
		j := int(table[h]) // always < i
		table[h] = int32(i)
		if lzLoad32(src, j) == cur {
			l := lzMatchLen(src, j, i)
			a.Uvarint(uint64(i - lit))
			a.Raw(src[lit:i])
			a.Uvarint(uint64(l))
			a.Uvarint(uint64(i - j))
			i += l
			lit = i
			continue
		}
		i++
	}
	lzTables.Put(table)
	if lit < len(src) || lit == 0 {
		a.Uvarint(uint64(len(src) - lit))
		a.Raw(src[lit:])
	}
	return a.Buf
}

// lzMatchLen returns the length of the match between the positions j <
// i of src, whose first lzMinMatch bytes are known equal. It compares
// 8 bytes at a time: the lowest set bit of the XOR of two words marks
// the first byte that differs.
func lzMatchLen(src []byte, j, i int) int {
	l := lzMinMatch
	for i+l+8 <= len(src) {
		if x := binary.LittleEndian.Uint64(src[j+l:]) ^ binary.LittleEndian.Uint64(src[i+l:]); x != 0 {
			return l + bits.TrailingZeros64(x)/8
		}
		l += 8
	}
	for i+l < len(src) && src[j+l] == src[i+l] {
		l++
	}
	return l
}

// lzExpand decodes a token stream into exactly rawLen bytes appended to
// out, reading tokens from s (which carries the container's flavored
// sentinels). The stream must consume fully and produce exactly rawLen
// bytes; anything else is corruption or truncation.
func lzExpand(out []byte, s *Cursor, rawLen int) ([]byte, error) {
	for len(out) < rawLen {
		litLen, err := s.Uvarint()
		if err != nil {
			return nil, err
		}
		if litLen > uint64(rawLen-len(out)) {
			return nil, s.corruptf("literal run %d overflows declared size", litLen)
		}
		lits, err := s.Raw(int(litLen))
		if err != nil {
			return nil, err
		}
		out = append(out, lits...)
		if len(out) == rawLen {
			break
		}
		matchLen, err := s.Uvarint()
		if err != nil {
			return nil, err
		}
		if matchLen < lzMinMatch || matchLen > uint64(rawLen-len(out)) {
			return nil, s.corruptf("match length %d out of range", matchLen)
		}
		dist, err := s.Uvarint()
		if err != nil {
			return nil, err
		}
		if dist == 0 || dist > uint64(len(out)) {
			return nil, s.corruptf("match distance %d out of range", dist)
		}
		// A match that overlaps its own output repeats its first dist
		// bytes; each copy doubles what the next one may take.
		j, n := len(out)-int(dist), int(matchLen)
		for n > 0 {
			k := min(n, len(out)-j)
			out = append(out, out[j:j+k]...)
			n -= k
		}
	}
	if err := s.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
