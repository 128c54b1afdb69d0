package races

import (
	"sort"
	"sync"

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

// DetectWorkers is Detect with both phases' parallelizable parts fanned
// out over a bounded worker pool (0 or 1 workers: serial, negative:
// runtime.GOMAXPROCS(0)): screening parallelizes per pair block,
// confirmation per conflict-address slice. The access-traced replay
// itself stays serial — it is a single deterministic execution. The
// report is identical for every worker count.
func DetectWorkers(prog *isa.Program, b *core.Bundle, workers int) (*Report, error) {
	return detectExec(prog, b, workers, dispatch.Local{Workers: workers}, "")
}

// DetectExec is Detect with both phases dispatched through an executor:
// a fleet executor ships screening blocks and confirmation slices as
// jobs referencing the bundle by digest, and the workers redo the
// access-traced replay themselves. The report is bit-identical to a
// local run: the job tilings are fixed protocol constants, every merge
// is index-ordered, and the final race list is totally ordered.
func DetectExec(prog *isa.Program, b *core.Bundle, exec dispatch.Executor, digest string) (*Report, error) {
	return detectExec(prog, b, 0, exec, digest)
}

func detectExec(prog *isa.Program, b *core.Bundle, workers int, exec dispatch.Executor, digest string) (*Report, error) {
	cands, pairs, err := screenExec(b, workers, exec, digest)
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
	rep.Races, rep.ConfirmedPairs, err = confirmExec(prog, b, cands, exec, digest)
	if err != nil {
		return nil, err
	}
	rep.FalsePositiveRate = float64(len(cands)-rep.ConfirmedPairs) / float64(len(cands))
	return rep, nil
}

// sample is one plain access inside a candidate chunk, stamped with its
// thread's vector clock at issue time. vc is shared, read-only, by every
// sample a thread issues between two of its synchronization events — the
// clock cannot change in between.
type sample struct {
	thread, chunk, pc int
	write             bool
	vc                []uint64 // snapshot of the issuing thread's clock
}

// happensBefore reports a ≺ b: everything thread a had done up to a's
// issue was visible to b's thread when b issued.
func happensBefore(a, b *sample) bool {
	return a.vc[a.thread] <= b.vc[a.thread]
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

// confirmSlices tiles the sorted conflict-address list into dispatch
// tasks: slice k of n owns addresses k, k+n, k+2n, ... Like
// screenBlockSize it is a protocol constant — the dispatching side must
// know the task count without tracing, so it cannot depend on the
// address count. Whole addresses stay within one slice, which preserves
// the per-address race deduplication, and the final total-order sort
// makes the merge independent of slicing entirely.
const confirmSlices = 8

// confirmExec runs the confirmation phase through an executor. The
// local path traces the recording once (lazily, on the first Run call)
// and confirms address slices in-process; a remote executor ships
// JobConfirmSlice envelopes and each worker re-derives the trace and
// candidate set from the bundle — both deterministic — before
// confirming its slice.
func confirmExec(prog *isa.Program, b *core.Bundle, cands []Candidate, exec dispatch.Executor, digest string) ([]Race, int, error) {
	var (
		once sync.Once
		st   *confirmState
		prep error
	)
	slices := make([]sliceRaces, confirmSlices)
	err := exec.Execute(dispatch.Spec{
		Tasks: confirmSlices,
		Run: func(k int) error {
			once.Do(func() { st, prep = traceConfirmState(prog, b, cands) })
			if prep != nil {
				return prep
			}
			slices[k] = st.confirmSlice(k, confirmSlices)
			return nil
		},
		Job: func(k int) (dispatch.Job, error) {
			return dispatch.Job{
				Kind:    dispatch.JobConfirmSlice,
				Digest:  digest,
				Payload: encodeConfirmJob(k, confirmSlices, len(cands)),
			}, nil
		},
		Absorb: func(k int, data []byte) error {
			s, err := decodeSliceRaces(data)
			if err != nil {
				return err
			}
			slices[k] = s
			return nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	races, confirmed := mergeSlices(slices)
	return races, confirmed, nil
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

// confirmState is the happens-before analysis shared by every
// confirmation slice: candidate indices, vector-clocked samples of
// candidate-chunk plain accesses grouped by address (each group in trace
// order), and the sorted address list the slices tile.
type confirmState struct {
	candPairs map[pairKey]bool
	byAddr    map[uint64][]sample
	addrs     []uint64
}

// traceConfirmState runs the access-traced replay of the recording,
// streaming every event into a confirmBuilder, and returns the finished
// analysis. The local path and the fleet's ExecConfirmJob both build
// their state here, so they agree on it by construction.
func traceConfirmState(prog *isa.Program, b *core.Bundle, cands []Candidate) (*confirmState, error) {
	cb := newConfirmBuilder(b.Threads, cands)
	if _, err := core.TraceAccesses(prog, b, cb.add); err != nil {
		return nil, err
	}
	return cb.finish(), nil
}

// confirmBuilder rebuilds the happens-before order from the traced
// synchronization accesses and samples the plain accesses inside
// candidate chunks, one event at a time as the traced replay emits
// them; the trace itself is never materialised.
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
// them on purpose — which finish applies once the whole trace is in.
//
// A sample identical to an earlier one of its address (same thread,
// chunk, PC, kind and clock snapshot) adds nothing: every pair it would
// form repeats one the earlier sample forms first, which confirmation
// skips as already seen. add drops such repeats when they fall in the
// address's newest run of samples from one thread, chunk and snapshot —
// where a loop's repeated accesses land.
type confirmBuilder struct {
	threads   int
	candChunk [][]bool // [thread][chunk]: the chunk is in some candidate pair
	candPairs map[pairKey]bool
	vc        [][]uint64
	snap      [][]uint64 // [thread]: shared snapshot of vc, nil after a sync event
	lock      map[uint64][]uint64
	syncAddr  map[uint64]bool
	byAddr    map[uint64][]sample
}

func newConfirmBuilder(threads int, cands []Candidate) *confirmBuilder {
	cb := &confirmBuilder{
		threads:   threads,
		candChunk: make([][]bool, threads),
		candPairs: make(map[pairKey]bool, len(cands)),
		vc:        make([][]uint64, threads),
		snap:      make([][]uint64, threads),
		lock:      map[uint64][]uint64{},
		syncAddr:  map[uint64]bool{},
		byAddr:    map[uint64][]sample{},
	}
	for t := range cb.vc {
		cb.vc[t] = make([]uint64, threads)
		cb.vc[t][t] = 1 // threads start mutually unordered
	}
	mark := func(t, c int) {
		if c >= len(cb.candChunk[t]) {
			cb.candChunk[t] = append(cb.candChunk[t], make([]bool, c+1-len(cb.candChunk[t]))...)
		}
		cb.candChunk[t][c] = true
	}
	for _, c := range cands {
		p := c.Pair
		mark(p.ThreadA, p.ChunkA)
		mark(p.ThreadB, p.ChunkB)
		cb.candPairs[pairKey{p.ThreadA, p.ChunkA, p.ThreadB, p.ChunkB}] = true
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

// lockClock returns sync address addr's last-release clock, creating a
// zero clock on first use.
func (cb *confirmBuilder) lockClock(addr uint64) []uint64 {
	la := cb.lock[addr]
	if la == nil {
		la = make([]uint64, cb.threads)
		cb.lock[addr] = la
	}
	return la
}

// add consumes one traced access.
func (cb *confirmBuilder) add(ev replay.AccessEvent) {
	t := ev.Thread
	if ev.Kind.IsSync() {
		cb.syncAddr[ev.Addr] = true
		cb.snap[t] = nil
		vc := cb.vc[t]
		switch ev.Kind {
		case replay.AccessAtomic:
			la := cb.lockClock(ev.Addr)
			join(vc, la)
			join(la, vc)
		case replay.AccessFutexWait:
			if la := cb.lock[ev.Addr]; la != nil {
				join(vc, la)
			}
		case replay.AccessFutexWake:
			join(cb.lockClock(ev.Addr), vc)
		}
		vc[t]++
		return
	}
	if cc := cb.candChunk[t]; ev.Chunk >= len(cc) || !cc[ev.Chunk] {
		return
	}
	snap := cb.snap[t]
	if snap == nil {
		snap = append([]uint64(nil), cb.vc[t]...)
		cb.snap[t] = snap
	}
	write := ev.Kind == replay.AccessWrite
	samples := cb.byAddr[ev.Addr]
	for i := len(samples) - 1; i >= 0; i-- {
		s := &samples[i]
		if s.thread != t || s.chunk != ev.Chunk || &s.vc[0] != &snap[0] {
			break
		}
		if s.pc == ev.PC && s.write == write {
			return
		}
	}
	cb.byAddr[ev.Addr] = append(samples, sample{
		thread: t, chunk: ev.Chunk, pc: ev.PC, write: write, vc: snap,
	})
}

// finish drops the synchronization addresses and sorts the conflict
// addresses so every executor tiles the same list: slice k of n owns
// addresses k, k+n, ... of this order.
func (cb *confirmBuilder) finish() *confirmState {
	for addr := range cb.syncAddr {
		delete(cb.byAddr, addr)
	}
	addrs := make([]uint64, 0, len(cb.byAddr))
	for addr := range cb.byAddr {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return &confirmState{candPairs: cb.candPairs, byAddr: cb.byAddr, addrs: addrs}
}

// confirmSlice pairs up unordered conflicting samples within candidate
// pairs, for the addresses slice k of n owns. Every race pairs two
// samples of one address and raceKey includes the address, so addresses
// are independent units of work; keeping whole addresses inside one
// slice preserves the per-address dedup maps.
func (st *confirmState) confirmSlice(k, n int) sliceRaces {
	var out sliceRaces
	// Consecutive sample pairs mostly fall in the same chunk pair, so the
	// last candPairs lookup is remembered until the pair changes.
	lastPK, lastCand := pairKey{-1, -1, -1, -1}, false
	for ai := k; ai < len(st.addrs); ai += n {
		addr := st.addrs[ai]
		samples := st.byAddr[addr]
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
				pk := pairKey{lo.thread, lo.chunk, hi.thread, hi.chunk}
				if pk != lastPK {
					lastPK, lastCand = pk, st.candPairs[pk]
				}
				if !lastCand {
					continue
				}
				rk := raceKey{addr, lo.thread, lo.pc, lo.write, hi.thread, hi.pc, hi.write}
				if seen[rk] {
					continue
				}
				if happensBefore(a, bs) || happensBefore(bs, a) {
					continue
				}
				seen[rk] = true
				if !addrConfirmed[pk] {
					addrConfirmed[pk] = true
					out.confirmed = append(out.confirmed, pk)
				}
				out.races = append(out.races, Race{
					Addr:    addr,
					ThreadA: lo.thread, PCA: lo.pc, ChunkA: lo.chunk, KindA: kindName(lo.write),
					ThreadB: hi.thread, PCB: hi.pc, ChunkB: hi.chunk, KindB: kindName(hi.write),
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
