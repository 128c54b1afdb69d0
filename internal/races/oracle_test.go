package races

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/replay"
	"repro/internal/workload"
)

// The reference confirmation below is the original two-pass,
// materialised-trace implementation, kept verbatim (modulo names) as the
// oracle the streaming confirmBuilder must match bit for bit.

// refSample is one plain access inside a candidate chunk, stamped with
// its thread's vector clock at issue time.
type refSample struct {
	thread, chunk, pc int
	write             bool
	clock             uint64
	vc                []uint64
}

func refHappensBefore(a, b *refSample) bool {
	return a.clock <= b.vc[a.thread]
}

type refConfirmState struct {
	candPairs map[pairKey]bool
	byAddr    map[uint64][]*refSample
	addrs     []uint64
}

func refBuildConfirmState(threads int, cands []Candidate, events []replay.AccessEvent) *refConfirmState {
	candChunks := map[[2]int]bool{}
	candPairs := map[pairKey]bool{}
	for _, c := range cands {
		p := c.Pair
		candChunks[[2]int{p.ThreadA, p.ChunkA}] = true
		candChunks[[2]int{p.ThreadB, p.ChunkB}] = true
		candPairs[pairKey{p.ThreadA, p.ChunkA, p.ThreadB, p.ChunkB}] = true
	}

	// Pass 1: the synchronization address set.
	syncAddr := map[uint64]bool{}
	for _, ev := range events {
		if ev.Kind.IsSync() {
			syncAddr[ev.Addr] = true
		}
	}

	// Pass 2: vector clocks + samples of candidate-chunk plain accesses.
	vc := make([][]uint64, threads)
	for t := range vc {
		vc[t] = make([]uint64, threads)
		vc[t][t] = 1
	}
	join := func(dst, src []uint64) {
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
	lock := map[uint64][]uint64{}
	byAddr := map[uint64][]*refSample{}
	for _, ev := range events {
		t := ev.Thread
		switch ev.Kind {
		case replay.AccessAtomic:
			la := lock[ev.Addr]
			if la == nil {
				la = make([]uint64, threads)
				lock[ev.Addr] = la
			}
			join(vc[t], la)
			join(la, vc[t])
			vc[t][t]++
		case replay.AccessFutexWait:
			if la := lock[ev.Addr]; la != nil {
				join(vc[t], la)
			}
			vc[t][t]++
		case replay.AccessFutexWake:
			la := lock[ev.Addr]
			if la == nil {
				la = make([]uint64, threads)
				lock[ev.Addr] = la
			}
			join(la, vc[t])
			vc[t][t]++
		default:
			if syncAddr[ev.Addr] || !candChunks[[2]int{t, ev.Chunk}] {
				continue
			}
			byAddr[ev.Addr] = append(byAddr[ev.Addr], &refSample{
				thread: t, chunk: ev.Chunk, pc: ev.PC,
				write: ev.Kind == replay.AccessWrite,
				clock: vc[t][t], vc: append([]uint64(nil), vc[t]...),
			})
		}
	}

	addrs := make([]uint64, 0, len(byAddr))
	for addr := range byAddr {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return &refConfirmState{candPairs: candPairs, byAddr: byAddr, addrs: addrs}
}

func (st *refConfirmState) confirmSlice(k, n int) sliceRaces {
	var out sliceRaces
	for ai := k; ai < len(st.addrs); ai += n {
		addr := st.addrs[ai]
		samples := st.byAddr[addr]
		seen := map[raceKey]bool{}
		addrConfirmed := map[pairKey]bool{}
		for i, a := range samples {
			for _, bs := range samples[i+1:] {
				if a.thread == bs.thread || (!a.write && !bs.write) {
					continue
				}
				lo, hi := a, bs
				if lo.thread > hi.thread {
					lo, hi = hi, lo
				}
				pk := pairKey{lo.thread, lo.chunk, hi.thread, hi.chunk}
				if !st.candPairs[pk] {
					continue
				}
				rk := raceKey{addr, lo.thread, lo.pc, lo.write, hi.thread, hi.pc, hi.write}
				if seen[rk] {
					continue
				}
				if refHappensBefore(a, bs) || refHappensBefore(bs, a) {
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

// refConfirm runs the reference confirmation over a materialised trace
// and returns the report fields confirmation decides.
func refConfirm(t *testing.T, prog *isa.Program, b *core.Bundle, cands []Candidate) ([]Race, int, float64) {
	t.Helper()
	if len(cands) == 0 {
		return nil, 0, 0
	}
	var events []replay.AccessEvent
	if _, err := core.TraceAccesses(prog, b, func(ev replay.AccessEvent) { events = append(events, ev) }); err != nil {
		t.Fatalf("trace: %v", err)
	}
	st := refBuildConfirmState(b.Threads, cands, events)
	slices := make([]sliceRaces, confirmSlices)
	for k := range slices {
		slices[k] = st.confirmSlice(k, confirmSlices)
	}
	races, confirmed := mergeSlices(slices)
	return races, confirmed, float64(len(cands)-confirmed) / float64(len(cands))
}

// TestConfirmMatchesReference pins the streaming confirmation to the
// reference over the whole catalogue plus a band of fuzz programs, at
// two core counts and three schedules each.
func TestConfirmMatchesReference(t *testing.T) {
	var names []string
	for _, spec := range workload.Suite() {
		names = append(names, spec.Name)
	}
	for seed := 100; seed <= 105; seed++ {
		names = append(names, fmt.Sprintf("fuzz-%d", seed))
	}
	total := 0
	for _, name := range names {
		for _, cores := range []int{2, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				prog, err := workload.ProgramByName(name, 4)
				if err != nil {
					t.Fatal(err)
				}
				b := record(t, prog, cores, 4, seed)
				rep, err := DetectWorkers(prog, b, 2)
				if err != nil {
					t.Fatalf("%s cores=%d seed=%d: %v", name, cores, seed, err)
				}
				races, confirmed, fpr := refConfirm(t, prog, b, rep.Candidates)
				if !reflect.DeepEqual(rep.Races, races) || rep.ConfirmedPairs != confirmed || rep.FalsePositiveRate != fpr {
					t.Errorf("%s cores=%d seed=%d: confirmation differs from reference: %d races/%d pairs/%v, want %d/%d/%v",
						name, cores, seed, len(rep.Races), rep.ConfirmedPairs, rep.FalsePositiveRate,
						len(races), confirmed, fpr)
				}
				total += len(races)
			}
		}
	}
	if total == 0 {
		t.Error("no races confirmed anywhere — oracle comparison is vacuous")
	}
}
