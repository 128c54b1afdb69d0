package analysis

import (
	"math"
	"slices"
	"testing"

	"repro/internal/chunk"
)

func mkLog(tid int, tss ...uint64) *chunk.Log {
	l := &chunk.Log{Thread: tid}
	for _, ts := range tss {
		l.Append(chunk.Entry{Size: 1, TS: ts, Reason: chunk.ReasonFlush})
	}
	return l
}

func pairSet(logs ...*chunk.Log) map[ChunkPair]bool {
	out := map[ChunkPair]bool{}
	for _, p := range ConcurrentPairs(logs, 0) {
		out[p] = true
	}
	return out
}

// bruteForcePairs recomputes the pair set quadratically with the
// documented (prev, ts] interval convention (open lower bound on first
// chunks), as an oracle for the linear merge.
func bruteForcePairs(logs []*chunk.Log) map[ChunkPair]bool {
	type span struct {
		lo, hi uint64
		open   bool
	}
	spans := make([][]span, len(logs))
	for tid, l := range logs {
		var prev uint64
		for i, e := range l.Entries {
			spans[tid] = append(spans[tid], span{lo: prev, hi: e.TS, open: i == 0})
			prev = e.TS
		}
	}
	out := map[ChunkPair]bool{}
	for a := range spans {
		for b := a + 1; b < len(spans); b++ {
			for i, sa := range spans[a] {
				for j, sb := range spans[b] {
					if (sa.open || sb.hi > sa.lo) && (sb.open || sa.hi > sb.lo) {
						out[ChunkPair{ThreadA: a, ChunkA: i, ThreadB: b, ChunkB: j}] = true
					}
				}
			}
		}
	}
	return out
}

// assertSameAsBruteForce checks the serial enumeration against the
// oracle, and the parallel enumerations against the serial one, order
// included.
func assertSameAsBruteForce(t *testing.T, logs ...*chunk.Log) map[ChunkPair]bool {
	t.Helper()
	serial := ConcurrentPairs(logs, 0)
	for _, workers := range []int{3, -1} {
		if par := ConcurrentPairs(logs, workers); !slices.Equal(par, serial) {
			t.Errorf("%d workers enumerate %v, serial %v", workers, par, serial)
		}
	}
	got := pairSet(logs...)
	want := bruteForcePairs(logs)
	if len(got) != len(want) {
		t.Errorf("got %d pairs, brute force %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing pair %+v", p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("spurious pair %+v", p)
		}
	}
	return got
}

func TestConcurrentPairsMaxTimestamp(t *testing.T) {
	// ts == MaxUint64 must not overflow: the old hi = ts+1 encoding
	// wrapped to 0 and silently dropped every pair touching the chunk.
	max := uint64(math.MaxUint64)
	got := assertSameAsBruteForce(t,
		mkLog(0, 10, max),
		mkLog(1, max-1, max),
	)
	// Thread 0's max-ts chunk (10, max] overlaps both of thread 1's.
	for _, p := range []ChunkPair{
		{ThreadA: 0, ChunkA: 1, ThreadB: 1, ChunkB: 0},
		{ThreadA: 0, ChunkA: 1, ThreadB: 1, ChunkB: 1},
	} {
		if !got[p] {
			t.Errorf("max-ts pair %+v lost", p)
		}
	}
}

func TestConcurrentPairsEqualTimestampAdjacent(t *testing.T) {
	// Equal timestamps across threads are concurrent (neither ordered
	// first); a chunk ending exactly where the other thread's next chunk
	// begins is ordered.
	got := assertSameAsBruteForce(t,
		mkLog(0, 5, 9),
		mkLog(1, 5, 9),
	)
	for _, p := range []ChunkPair{
		{ThreadA: 0, ChunkA: 0, ThreadB: 1, ChunkB: 0},
		{ThreadA: 0, ChunkA: 1, ThreadB: 1, ChunkB: 1},
	} {
		if !got[p] {
			t.Errorf("equal-ts pair %+v missing", p)
		}
	}
	for _, p := range []ChunkPair{
		{ThreadA: 0, ChunkA: 0, ThreadB: 1, ChunkB: 1},
		{ThreadA: 0, ChunkA: 1, ThreadB: 1, ChunkB: 0},
	} {
		if got[p] {
			t.Errorf("boundary-ordered pair %+v reported concurrent", p)
		}
	}
}

func TestConcurrentPairsSingleChunkThreads(t *testing.T) {
	// Single-chunk threads have open lower bounds, so they are
	// concurrent with everything that starts before their timestamp —
	// including each other at identical (and zero) timestamps.
	got := assertSameAsBruteForce(t, mkLog(0, 0), mkLog(1, 0))
	if !got[ChunkPair{ThreadA: 0, ChunkA: 0, ThreadB: 1, ChunkB: 0}] {
		t.Error("two ts-0 opening chunks must be concurrent (both unbounded below)")
	}

	// A first chunk whose predecessor-free bound would collide with a
	// real predecessor timestamp of 0: thread 1's second chunk has
	// lo == 0, thread 0's only chunk ends at 0. They must be ordered,
	// while the two opening chunks stay concurrent.
	got = assertSameAsBruteForce(t, mkLog(0, 0), mkLog(1, 0, 7))
	if got[ChunkPair{ThreadA: 0, ChunkA: 0, ThreadB: 1, ChunkB: 1}] {
		t.Error("chunk ending at ts 0 reported concurrent with successor starting at ts 0")
	}
	if !got[ChunkPair{ThreadA: 0, ChunkA: 0, ThreadB: 1, ChunkB: 0}] {
		t.Error("opening chunks at ts 0 must be concurrent")
	}
}

func TestConcurrentPairsMixedShapes(t *testing.T) {
	// Three threads with assorted shapes — empty log, single chunk,
	// longer run — exercise the slide/take pointer arithmetic against
	// the oracle.
	assertSameAsBruteForce(t,
		mkLog(0, 3, 6, 9, 12),
		mkLog(1),
		mkLog(2, 7),
	)
	assertSameAsBruteForce(t,
		mkLog(0, 1, 2, 3),
		mkLog(1, 2, 4, 8),
		mkLog(2, 3, 3, 5), // malformed equal adjacent ts stays in bounds
	)
}
