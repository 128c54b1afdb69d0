package races

import (
	"slices"
	"sort"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/replay"
)

// Race is one confirmed instruction-level data race: two accesses to the
// same address from different threads, at least one a write, with no
// happens-before path between them. Sides are ordered so ThreadA <
// ThreadB.
type Race struct {
	Addr    uint64 `json:"addr"`
	ThreadA int    `json:"thread_a"`
	PCA     int    `json:"pc_a"`
	ChunkA  int    `json:"chunk_a"`
	KindA   string `json:"kind_a"`
	ThreadB int    `json:"thread_b"`
	PCB     int    `json:"pc_b"`
	ChunkB  int    `json:"chunk_b"`
	KindB   string `json:"kind_b"`
}

// Report is the detector's full output.
type Report struct {
	Program string `json:"program"`
	Threads int    `json:"threads"`
	// TotalChunks and ConcurrentPairs size the screening input.
	TotalChunks     int `json:"total_chunks"`
	ConcurrentPairs int `json:"concurrent_pairs"`
	// Candidates are the signature-screened chunk pairs.
	Candidates []Candidate `json:"candidates"`
	// Races are the confirmed instruction-level races, deduplicated by
	// (address, threads, PCs, kinds).
	Races []Race `json:"races"`
	// ConfirmedPairs counts candidate pairs containing at least one
	// confirmed race; FalsePositiveRate is the fraction of candidates
	// that confirmation discarded — the Bloom aliasing figure (0 when
	// there were no candidates).
	ConfirmedPairs    int     `json:"confirmed_pairs"`
	FalsePositiveRate float64 `json:"false_positive_rate"`
}

// Detect runs both phases: signature screening, then happens-before
// confirmation over an access-traced deterministic replay. Soundness
// note: screening inherits Bloom semantics (false positives, no false
// negatives on concurrent pairs), so confirmation only ever shrinks the
// candidate set — a pair absent from Candidates cannot hold a race
// between Lamport-concurrent chunks.
func Detect(prog *isa.Program, b *core.Bundle) (*Report, error) {
	return DetectWorkers(prog, b, 0)
}

// DetectWorkers is Detect with its parallelizable parts fanned out over
// a bounded worker pool (0 or 1 workers: serial, negative:
// runtime.GOMAXPROCS(0)): screening parallelizes per pair block, the
// access-traced replay per checkpoint interval, and confirmation per
// conflict-address slice. With one worker the recording is traced as a
// single interval, streamed straight into the happens-before builder.
// The report is identical for every worker count.
func DetectWorkers(prog *isa.Program, b *core.Bundle, workers int) (*Report, error) {
	return detectExec(prog, b, workers, nil, "")
}

// DetectExec is Detect with the traced interval replays dispatched
// through an executor: a fleet executor ships them as jobs referencing
// the bundle by digest, and each worker traces the intervals it is sent.
// Screening, the trace merge and confirmation run in the caller's
// process. The report is bit-identical to a local run: the interval
// partition is a pure function of the bundle, the trace merge reproduces
// the serial event order, and the final race list is totally ordered.
func DetectExec(prog *isa.Program, b *core.Bundle, exec dispatch.Executor, digest string) (*Report, error) {
	return detectExec(prog, b, 0, exec, digest)
}

// detectExec runs both phases; a nil exec traces on the local pool
// bounded by workers.
func detectExec(prog *isa.Program, b *core.Bundle, workers int, exec dispatch.Executor, digest string) (*Report, error) {
	cands, pairs, err := screen(b, workers)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Program:         b.ProgramName,
		Threads:         b.Threads,
		ConcurrentPairs: pairs,
		Candidates:      cands,
	}
	for _, l := range b.ChunkLogs {
		rep.TotalChunks += l.Len()
	}
	if len(cands) == 0 {
		return rep, nil
	}
	rep.Races, rep.ConfirmedPairs, err = confirmExec(prog, b, newCandidateSet(b, cands), workers, exec, digest)
	if err != nil {
		return nil, err
	}
	rep.FalsePositiveRate = float64(len(cands)-rep.ConfirmedPairs) / float64(len(cands))
	return rep, nil
}

// pairKey identifies a candidate chunk pair, threads ordered.
type pairKey struct{ ta, ca, tb, cb int }

// raceKey deduplicates race reports.
type raceKey struct {
	addr   uint64
	ta, pa int
	wa     bool
	tb, pb int
	wb     bool
}

// candidateSet indexes a screened candidate list for confirmation:
// chunks marks every chunk in some candidate pair — the trace filter —
// and pairs holds the pairs themselves.
type candidateSet struct {
	chunks replay.ChunkFilter
	pairs  map[pairKey]bool
	n      int
}

// newCandidateSet indexes cands, whose chunk indices lie inside b's
// chunk logs: screening derives them from the logs.
func newCandidateSet(b *core.Bundle, cands []Candidate) *candidateSet {
	cs := &candidateSet{
		chunks: make(replay.ChunkFilter, len(b.ChunkLogs)),
		pairs:  make(map[pairKey]bool, len(cands)),
		n:      len(cands),
	}
	for t, l := range b.ChunkLogs {
		cs.chunks[t] = make([]bool, l.Len())
	}
	for _, c := range cands {
		p := c.Pair
		cs.chunks[p.ThreadA][p.ChunkA] = true
		cs.chunks[p.ThreadB][p.ChunkB] = true
		cs.pairs[pairKey{p.ThreadA, p.ChunkA, p.ThreadB, p.ChunkB}] = true
	}
	return cs
}

// confirmSlices tiles the sorted conflict-address list into local
// confirmation tasks: slice k of n owns addresses k, k+n, k+2n, ...
// Whole addresses stay within one slice, which preserves the per-address
// race deduplication, and the final total-order sort makes the merge
// independent of slicing entirely.
const confirmSlices = 8

// confirmExec runs the confirmation phase. The recording is partitioned
// the way replay partitions it (cut at its checkpoints when exec is set
// or workers asks for parallelism), each interval is traced filtered to
// the candidate chunks — through exec, or the local pool — and the
// interval traces are merged into the happens-before builder in serial
// event order. A single local interval streams into the builder as it
// replays. Address slices are then confirmed on the local pool.
func confirmExec(prog *isa.Program, b *core.Bundle, cs *candidateSet, workers int, exec dispatch.Executor, digest string) ([]Race, int, error) {
	in, err := core.ReplayInput(prog, b)
	if err != nil {
		return nil, 0, err
	}
	in.Workers, in.Exec = workers, exec
	ir, err := replay.Partition(in)
	if err != nil {
		return nil, 0, err
	}
	cb := newConfirmBuilder(b.Threads, ir.MemWords())
	if n := ir.Intervals(); exec == nil && n == 1 {
		_, err = ir.TraceInterval(0, cs.chunks, cb)
	} else {
		err = traceIntervals(ir, cs, cb, workers, exec, digest)
	}
	if err != nil {
		return nil, 0, err
	}
	st := cb.finish(cs.pairs)
	parts := make([]sliceRaces, confirmSlices)
	// Run never fails, so neither can the local pool.
	_ = dispatch.Local{Workers: workers}.Execute(dispatch.Spec{
		Tasks: confirmSlices,
		Run: func(k int) error {
			parts[k] = st.confirmSlice(k, confirmSlices)
			return nil
		},
	})
	races, confirmed := mergeSlices(parts)
	return races, confirmed, nil
}

// traceIntervals traces every interval of the partition through the
// executor (nil: the local pool) and merges the traces into cb. A remote
// interval arrives as a JobTraceInterval result, decoded against the
// bounds the builder indexes by.
func traceIntervals(ir *replay.IntervalRunner, cs *candidateSet, cb *confirmBuilder, workers int, exec dispatch.Executor, digest string) error {
	if exec == nil {
		exec = dispatch.Local{Workers: workers}
	}
	n, memWords := ir.Intervals(), ir.MemWords()
	traces := make([]*replay.AccessTrace, n)
	err := exec.Execute(dispatch.Spec{
		Tasks: n,
		Run: func(i int) error {
			tr := &replay.AccessTrace{}
			if _, err := ir.TraceInterval(i, cs.chunks, tr); err != nil {
				return err
			}
			traces[i] = tr
			return nil
		},
		Job: func(i int) (dispatch.Job, error) {
			return dispatch.Job{
				Kind:    dispatch.JobTraceInterval,
				Digest:  digest,
				Payload: encodeTraceJob(i, n, cs.n),
			}, nil
		},
		Absorb: func(i int, data []byte) error {
			tr, err := decodeTrace(data, cs.chunks, memWords)
			if err != nil {
				return err
			}
			traces[i] = tr
			return nil
		},
	})
	if err != nil {
		return err
	}
	replay.MergeTraces(traces, cb)
	return nil
}

// sliceRaces is one confirmation slice's output.
type sliceRaces struct {
	races     []Race
	confirmed []pairKey
}

// mergeSlices merges per-slice outputs: races concatenate and then take
// the total order (so slicing is invisible), confirmed pairs union.
func mergeSlices(slices []sliceRaces) ([]Race, int) {
	confirmed := map[pairKey]bool{}
	var races []Race
	for _, s := range slices {
		races = append(races, s.races...)
		for _, pk := range s.confirmed {
			confirmed[pk] = true
		}
	}
	sortRaces(races)
	return races, len(confirmed)
}

// sortRaces puts races in their canonical total order: the tie-breakers
// past PCB make the sort independent of the pre-sort order, so serial,
// parallel and fleet runs report identically.
func sortRaces(races []Race) {
	sort.Slice(races, func(i, j int) bool {
		a, b := races[i], races[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.ThreadA != b.ThreadA {
			return a.ThreadA < b.ThreadA
		}
		if a.PCA != b.PCA {
			return a.PCA < b.PCA
		}
		if a.PCB != b.PCB {
			return a.PCB < b.PCB
		}
		if a.ChunkA != b.ChunkA {
			return a.ChunkA < b.ChunkA
		}
		if a.ChunkB != b.ChunkB {
			return a.ChunkB < b.ChunkB
		}
		if a.KindA != b.KindA {
			return a.KindA < b.KindA
		}
		return a.KindB < b.KindB
	})
}

// sample is one plain access inside a candidate chunk. snap locates the
// issuing thread's vector clock at issue time in the builder's clock
// arena; one snapshot serves every sample a thread issues between two of
// its synchronization events, since the clock cannot change in between.
// prev links the address's previous sample in trace order (-1: none).
type sample struct {
	thread, chunk, pc int32
	snap              int32
	prev              int32
	write             bool
}

// addrState is one address seen by the builder.
type addrState struct {
	word uint64 // the word index; unused for far addresses
	last int32  // newest sample, -1: none
	n    int32  // samples
	lock int32  // offset of the last-release clock in locks, -1: none
	sync bool   // carries synchronization somewhere in the trace
}

// confirmBuilder rebuilds the happens-before order from the traced
// synchronization accesses and samples the plain accesses inside
// candidate chunks, consuming an access trace item by item in serial
// replay order. Every per-event write is an append to a flat arena:
// samples to samples, vector-clock snapshots to clocks, lock clocks to
// locks, and an address's first sighting to addrs, whose index a dense
// per-word table maps each address to. A futex syscall may name a word
// the table cannot hold — unaligned, or past the replay memory: the
// kernel never touches a wake's word, and replay never checks a wait's.
// Such an address keys its own entry in far, by its exact byte address,
// as every synchronization address is keyed; no plain access can reach
// it, since replay faults on those.
//
// Vector-clock rules (events arrive in deterministic replay order):
//
//	atomic t@a:    VC[t] ⊔= L[a]; L[a] ⊔= VC[t]; VC[t][t]++
//	futex-wait t@a: VC[t] ⊔= L[a]; VC[t][t]++   (acquire)
//	futex-wake t@a: L[a] ⊔= VC[t]; VC[t][t]++   (release)
//
// where L[a] is the last-release clock of sync address a. Plain accesses
// snapshot their thread's clock; only t's own sync events change VC[t],
// so one snapshot serves all of t's plain accesses until its next sync
// event. Addresses that carry synchronization anywhere in the trace are
// excluded from race reporting — the program is ordering itself through
// them on purpose — so a plain access to an address already known to be
// one is not sampled, and finish drops the rest.
//
// A sample identical to an earlier one of its address (same thread,
// chunk, PC, kind and clock snapshot) adds nothing: every pair it would
// form repeats one the earlier sample forms first, which confirmation
// skips as already seen. Access drops such repeats when they fall in the
// address's newest run of samples from one thread, chunk and snapshot —
// where a loop's repeated accesses land.
type confirmBuilder struct {
	threads       int
	thread, chunk int              // the open trace item
	vc            []uint64         // [thread*threads + u]
	snap          []int32          // [thread]: the thread's current snapshot, -1 after a sync event
	clocks        []uint64         // snapshot arena, threads words each
	locks         []uint64         // last-release clock arena, threads words each
	addrID        []int32          // [word]: index into addrs + 1, 0: unseen
	far           map[uint64]int32 // [byte address]: the same, for futex words outside addrID
	addrs         []addrState
	samples       []sample
}

func newConfirmBuilder(threads int, memWords uint64) *confirmBuilder {
	cb := &confirmBuilder{
		threads: threads,
		vc:      make([]uint64, threads*threads),
		snap:    make([]int32, threads),
		addrID:  make([]int32, memWords),
	}
	for t := 0; t < threads; t++ {
		cb.vc[t*threads+t] = 1 // threads start mutually unordered
		cb.snap[t] = -1
	}
	return cb
}

// join raises dst to the pointwise maximum of dst and src.
func join(dst, src []uint64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// addr returns word's state, creating it on first sight.
func (cb *confirmBuilder) addr(word uint64) *addrState {
	id := cb.addrID[word]
	if id == 0 {
		id = cb.newAddr(word)
		cb.addrID[word] = id
	}
	return &cb.addrs[id-1]
}

// newAddr appends a fresh address state and returns its id.
func (cb *confirmBuilder) newAddr(word uint64) int32 {
	cb.addrs = append(cb.addrs, addrState{word: word, last: -1, lock: -1})
	return int32(len(cb.addrs))
}

// syncAddr returns the state of the synchronization address addr, a
// byte address, and marks it as one.
func (cb *confirmBuilder) syncAddr(addr uint64) *addrState {
	var a *addrState
	if addr%8 == 0 && addr/8 < uint64(len(cb.addrID)) {
		a = cb.addr(addr / 8)
	} else {
		id := cb.far[addr]
		if id == 0 {
			if cb.far == nil {
				cb.far = map[uint64]int32{}
			}
			id = cb.newAddr(0)
			cb.far[addr] = id
		}
		a = &cb.addrs[id-1]
	}
	a.sync = true
	return a
}

// lockClock returns a's last-release clock, creating a zero clock on
// first use.
func (cb *confirmBuilder) lockClock(a *addrState) []uint64 {
	if a.lock < 0 {
		a.lock = int32(len(cb.locks))
		cb.locks = append(cb.locks, make([]uint64, cb.threads)...)
	}
	return cb.locks[a.lock : int(a.lock)+cb.threads]
}

// Item implements replay.AccessSink.
func (cb *confirmBuilder) Item(thread, chunk int, _ uint64) {
	cb.thread, cb.chunk = thread, chunk
}

// Access implements replay.AccessSink.
func (cb *confirmBuilder) Access(ev replay.TraceEvent) {
	t, T := cb.thread, cb.threads
	if ev.Kind.IsSync() {
		a := cb.syncAddr(ev.Addr)
		cb.snap[t] = -1
		vc := cb.vc[t*T : t*T+T]
		switch ev.Kind {
		case replay.AccessAtomic:
			la := cb.lockClock(a)
			join(vc, la)
			join(la, vc)
		case replay.AccessFutexWait:
			if a.lock >= 0 {
				join(vc, cb.locks[a.lock:int(a.lock)+T])
			}
		case replay.AccessFutexWake:
			join(cb.lockClock(a), vc)
		}
		vc[t]++
		return
	}
	a := cb.addr(ev.Addr / 8)
	if a.sync {
		return
	}
	snap := cb.snap[t]
	if snap < 0 {
		snap = int32(len(cb.clocks) / T)
		cb.clocks = append(arena.Grow(cb.clocks, T), cb.vc[t*T:t*T+T]...)
		cb.snap[t] = snap
	}
	thread, chunk, pc := int32(t), int32(cb.chunk), ev.PC
	write := ev.Kind == replay.AccessWrite
	for i := a.last; i >= 0; {
		s := &cb.samples[i]
		if s.thread != thread || s.chunk != chunk || s.snap != snap {
			break
		}
		if s.pc == pc && s.write == write {
			return
		}
		i = s.prev
	}
	cb.samples = append(arena.Grow(cb.samples, 1), sample{
		thread: thread, chunk: chunk, pc: pc, snap: snap, prev: a.last, write: write,
	})
	a.last = int32(len(cb.samples) - 1)
	a.n++
}

// addrSpan is one conflict address's run of samples in confirmState.
type addrSpan struct {
	addr   uint64
	lo, hi int
}

// confirmState is the finished happens-before analysis every
// confirmation slice reads: the candidate pairs, the clock snapshots,
// and the samples of the conflict addresses grouped by address in
// ascending address order, each group in trace order.
type confirmState struct {
	threads int
	pairs   map[pairKey]bool
	clocks  []uint64
	samples []sample
	spans   []addrSpan
}

// finish drops the synchronization addresses and groups the rest's
// samples by address, ascending: confirmation slice k of n owns
// addresses k, k+n, ... of this order. The grouping is a stable counting
// sort — each address's prev chain, walked from its newest sample, fills
// its span from the back — so trace order within an address is kept:
// the first pair of samples confirmSlice finds for a race names the
// chunks it reports.
func (cb *confirmBuilder) finish(pairs map[pairKey]bool) *confirmState {
	var words []uint64
	total := 0
	for i := range cb.addrs {
		if a := &cb.addrs[i]; !a.sync && a.n > 0 {
			words = append(words, a.word)
			total += int(a.n)
		}
	}
	slices.Sort(words)
	st := &confirmState{
		threads: cb.threads,
		pairs:   pairs,
		clocks:  cb.clocks,
		samples: make([]sample, total),
		spans:   make([]addrSpan, len(words)),
	}
	lo := 0
	for k, w := range words {
		a := &cb.addrs[cb.addrID[w]-1]
		hi := lo + int(a.n)
		st.spans[k] = addrSpan{addr: w * 8, lo: lo, hi: hi}
		pos := hi
		for i := a.last; i >= 0; i = cb.samples[i].prev {
			pos--
			st.samples[pos] = cb.samples[i]
		}
		lo = hi
	}
	return st
}

// happensBefore reports a ≺ b: everything a's thread had done up to a's
// issue was visible to b's thread when b issued.
func (st *confirmState) happensBefore(a, b *sample) bool {
	T := st.threads
	return st.clocks[int(a.snap)*T+int(a.thread)] <= st.clocks[int(b.snap)*T+int(a.thread)]
}

// confirmSlice pairs up unordered conflicting samples within candidate
// pairs, for the addresses slice k of n owns. Every race pairs two
// samples of one address and raceKey includes the address, so addresses
// are independent units of work; keeping whole addresses inside one
// slice preserves the per-address dedup maps.
func (st *confirmState) confirmSlice(k, n int) sliceRaces {
	var out sliceRaces
	// Consecutive sample pairs mostly fall in the same chunk pair, so the
	// last pairs lookup is remembered until the pair changes.
	lastPK, lastCand := pairKey{-1, -1, -1, -1}, false
	for ai := k; ai < len(st.spans); ai += n {
		span := st.spans[ai]
		samples := st.samples[span.lo:span.hi]
		seen := map[raceKey]bool{}
		addrConfirmed := map[pairKey]bool{}
		for i := range samples {
			a := &samples[i]
			for j := i + 1; j < len(samples); j++ {
				bs := &samples[j]
				if a.thread == bs.thread || (!a.write && !bs.write) {
					continue
				}
				lo, hi := a, bs
				if lo.thread > hi.thread {
					lo, hi = hi, lo
				}
				pk := pairKey{int(lo.thread), int(lo.chunk), int(hi.thread), int(hi.chunk)}
				if pk != lastPK {
					lastPK, lastCand = pk, st.pairs[pk]
				}
				if !lastCand {
					continue
				}
				rk := raceKey{span.addr, pk.ta, int(lo.pc), lo.write, pk.tb, int(hi.pc), hi.write}
				if seen[rk] {
					continue
				}
				if st.happensBefore(a, bs) || st.happensBefore(bs, a) {
					continue
				}
				seen[rk] = true
				if !addrConfirmed[pk] {
					addrConfirmed[pk] = true
					out.confirmed = append(out.confirmed, pk)
				}
				out.races = append(out.races, Race{
					Addr:    span.addr,
					ThreadA: pk.ta, PCA: int(lo.pc), ChunkA: pk.ca, KindA: kindName(lo.write),
					ThreadB: pk.tb, PCB: int(hi.pc), ChunkB: pk.cb, KindB: kindName(hi.write),
				})
			}
		}
	}
	return out
}

func kindName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
