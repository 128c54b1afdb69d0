package analysis

import (
	"repro/internal/chunk"
	"repro/internal/dispatch"
)

// ChunkPair names two chunks on different threads whose timestamp
// intervals overlap, i.e. chunks the recorded Lamport order does not
// serialize. ThreadA < ThreadB always holds; ChunkA and ChunkB are
// indices into the respective thread's chunk log.
type ChunkPair struct {
	ThreadA int
	ChunkA  int
	ThreadB int
	ChunkB  int
}

// ConcurrentPairs enumerates every cross-thread pair of
// Lamport-concurrent chunks. A chunk occupies the interval
// (previous same-thread ts, own ts] — unbounded below for a thread's
// first chunk — matching the replay scheduler's view, and two chunks are
// concurrent when those intervals overlap: each must end strictly after
// the other begins. A chunk that ends exactly where another begins is
// ordered before it, not concurrent with it.
// Per-thread intervals are ascending, so each thread pair is a linear
// merge rather than a quadratic scan. The thread-pair merges fan out
// over a bounded worker pool (0 or 1 workers: serial, negative:
// runtime.GOMAXPROCS(0)); each is independent, and their results are
// concatenated in (a, b)-lexicographic order, so the output is identical
// for every worker count.
func ConcurrentPairs(logs []*chunk.Log, workers int) []ChunkPair {
	spans := spansOf(logs)
	type job struct{ a, b int }
	var jobs []job
	for a := 0; a < len(spans); a++ {
		for b := a + 1; b < len(spans); b++ {
			jobs = append(jobs, job{a, b})
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	perJob := make([][]ChunkPair, len(jobs))
	dispatch.Local{Workers: workers}.Execute(dispatch.Spec{
		Tasks: len(jobs),
		Run: func(i int) error {
			j := jobs[i]
			perJob[i] = appendPairs(nil, j.a, spans[j.a], j.b, spans[j.b])
			return nil
		},
	})
	var pairs []ChunkPair
	for _, p := range perJob {
		pairs = append(pairs, p...)
	}
	return pairs
}

// span is one chunk's timestamp interval (lo, hi]. open marks a thread's
// first chunk, whose lower bound is -infinity: lo would otherwise be the
// zero value and collide with a genuine predecessor timestamp of 0.
// Timestamps are used as-is (hi == own ts), so ts == MaxUint64 needs no
// +1 and cannot overflow.
type span struct {
	lo, hi uint64
	open   bool
	idx    int
}

func spansOf(logs []*chunk.Log) [][]span {
	spans := make([][]span, len(logs))
	for tid, l := range logs {
		var prevTS uint64
		for i, e := range l.Entries {
			spans[tid] = append(spans[tid], span{lo: prevTS, hi: e.TS, open: i == 0, idx: i})
			prevTS = e.TS
		}
	}
	return spans
}

// appendPairs merges one thread pair's span lists. Spans (pa, ta] and
// (pb, tb] overlap iff tb > pa and ta > pb, an open bound standing for
// -infinity. Both lists ascend in lo and hi, so for each span of thread
// a the matching run of thread b spans starts no earlier than it did for
// the previous span: slide a start pointer past spans that end at or
// before sa.lo (only once sa has a real lower bound — the first span's
// is -infinity and excludes nothing), then take every span opening
// strictly before sa.hi.
func appendPairs(pairs []ChunkPair, a int, sa []span, b int, sb []span) []ChunkPair {
	start := 0
	for _, s := range sa {
		if !s.open {
			for start < len(sb) && sb[start].hi <= s.lo {
				start++
			}
		}
		for j := start; j < len(sb) && (sb[j].open || sb[j].lo < s.hi); j++ {
			pairs = append(pairs, ChunkPair{
				ThreadA: a, ChunkA: s.idx,
				ThreadB: b, ChunkB: sb[j].idx,
			})
		}
	}
	return pairs
}
