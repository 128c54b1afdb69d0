package races

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/capo"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
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

// refEvent is one access of a full trace, attributed to its item's
// thread and chunk.
type refEvent struct {
	Thread, Chunk, PC int
	Addr              uint64
	Kind              replay.AccessKind
}

// refEvents flattens a trace into per-access records.
func refEvents(tr *replay.AccessTrace) []refEvent {
	var out []refEvent
	evs := tr.Events
	for _, it := range tr.Items {
		for _, ev := range evs[:it.Events] {
			out = append(out, refEvent{
				Thread: int(it.Thread), Chunk: int(it.Chunk), PC: int(ev.PC), Addr: ev.Addr, Kind: ev.Kind,
			})
		}
		evs = evs[it.Events:]
	}
	return out
}

func refBuildConfirmState(threads int, cands []Candidate, events []refEvent) *refConfirmState {
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
	in, err := core.ReplayInput(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := replay.Partition(in) // one interval: the whole recording
	if err != nil {
		t.Fatal(err)
	}
	var tr replay.AccessTrace
	if _, err := ir.TraceInterval(0, nil, &tr); err != nil {
		t.Fatalf("trace: %v", err)
	}
	st := refBuildConfirmState(b.Threads, cands, refEvents(&tr))
	slices := make([]sliceRaces, confirmSlices)
	for k := range slices {
		slices[k] = st.confirmSlice(k, confirmSlices)
	}
	races, confirmed := mergeSlices(slices)
	return races, confirmed, float64(len(cands)-confirmed) / float64(len(cands))
}

// TestConfirmMatchesReference pins confirmation to the reference over
// the whole catalogue, a band of fuzz programs and oddWakeRacy, at two
// core counts and three schedules each. Each program is recorded without
// checkpoints and detected serially and through in-process trace jobs;
// both reports must equal the reference. It is also recorded with a
// checkpoint every 500 and every 2,000 instructions, and detected
// serially (one streamed interval, checked against the reference), on
// two local workers and through trace jobs (one traced interval per
// checkpoint); all three reports must be equal. Some cut must put an
// item after one of a later interval in serial order, or the merge of
// interval traces would go untested. Under -race, which slows the
// replays more than tenfold, the checkpointed cases keep one schedule
// and skip the reference: the partition's concurrency is the same for
// every schedule, and the plain `go test` run checks them all.
func TestConfirmMatchesReference(t *testing.T) {
	progs := []*isa.Program{oddWakeRacy(150, 4)}
	for _, spec := range workload.Suite() {
		progs = append(progs, spec.Build(4))
	}
	for seed := uint64(100); seed <= 105; seed++ {
		progs = append(progs, workload.RandomProgram(seed, 4))
	}
	var total, reorders atomic.Int64
	t.Run("programs", func(t *testing.T) {
		for _, prog := range progs {
			prog := prog
			t.Run(prog.Name, func(t *testing.T) {
				t.Parallel()
				for _, cores := range []int{2, 4} {
					for seed := uint64(1); seed <= 3; seed++ {
						for _, every := range []uint64{0, 500, 2000} {
							if raceEnabled && every > 0 && seed > 1 {
								continue
							}
							n, reorder := checkAgainstReference(t, prog, cores, seed, every)
							total.Add(int64(n))
							if reorder {
								reorders.Add(1)
							}
						}
					}
				}
			})
		}
	})
	if total.Load() == 0 {
		t.Error("no races confirmed anywhere — oracle comparison is vacuous")
	}
	if reorders.Load() == 0 {
		t.Error("no recording's interval traces reorder when merged — the serial-order merge is untested")
	}
	t.Logf("%d recordings' interval traces reorder when merged into serial order", reorders.Load())
}

// checkAgainstReference records one case and checks its detect modes
// against each other and the reference. It returns the number of races
// confirmed and whether the interval traces reorder when merged.
func checkAgainstReference(t *testing.T, prog *isa.Program, cores int, seed, every uint64) (int, bool) {
	t.Helper()
	b := recordEvery(t, prog, cores, 4, seed, every)
	where := fmt.Sprintf("cores=%d seed=%d every=%d", cores, seed, every)
	rep, err := DetectWorkers(prog, b, 1)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if !raceEnabled || every == 0 {
		races, confirmed, fpr := refConfirm(t, prog, b, rep.Candidates)
		if !reflect.DeepEqual(rep.Races, races) || rep.ConfirmedPairs != confirmed || rep.FalsePositiveRate != fpr {
			t.Errorf("%s: confirmation differs from reference: %d races/%d pairs/%v, want %d/%d/%v",
				where, len(rep.Races), rep.ConfirmedPairs, rep.FalsePositiveRate, len(races), confirmed, fpr)
		}
	}
	jobs := newJobExec(t, prog, b)
	remote, err := DetectExec(prog, b, jobs, testDigest)
	if err != nil {
		t.Fatalf("%s jobs: %v", where, err)
	}
	if !reflect.DeepEqual(rep, remote) {
		t.Errorf("%s: job report differs from serial", where)
	}
	if every == 0 {
		return len(rep.Races), false
	}
	par, err := DetectWorkers(prog, b, 2)
	if err != nil {
		t.Fatalf("%s workers=2: %v", where, err)
	}
	if !reflect.DeepEqual(rep, par) {
		t.Errorf("%s: two-worker report differs from serial", where)
	}
	return len(rep.Races), len(rep.Candidates) > 0 && reordered(jobs.intervalTraces(t))
}

// oddWakeRacy is Racy with two extra futex_wake syscalls per thread
// after its racy loop: one on the racy word's address plus 3, one on an
// address past the replay memory. The kernel never touches a wake's
// word, so a valid recording can name either; neither is a word the
// happens-before builder's dense table holds. A builder keying them by
// word would mark the racy word as synchronization, hiding its races,
// and index the table out of range.
func oddWakeRacy(iters int64, threads int) *isa.Program {
	var lay mem.Layout
	shared := lay.AllocWords(1)
	barrier := lay.AllocWords(2)

	b := isa.NewBuilder("racy-odd-wake")
	b.Liu(isa.R3, shared)
	b.Li(isa.R4, 0)
	b.Li(isa.R5, iters)
	b.Label("loop")
	b.Ld(isa.R6, isa.R3, 0)
	b.Addi(isa.R6, isa.R6, 1)
	b.St(isa.R3, 0, isa.R6)
	b.Addi(isa.R4, isa.R4, 1)
	b.Bne(isa.R4, isa.R5, "loop")
	for _, addr := range []uint64{shared + 3, 1 << 40} {
		b.Li(isa.RRet, int64(capo.SysFutexWake))
		b.Liu(isa.R11, addr)
		b.Li(isa.R12, 1)
		b.Syscall()
	}
	b.Liu(isa.R8, barrier)
	workload.EmitBarrier(b, "b0", isa.R8)
	b.Halt()
	return b.Build(lay.Size(), threads, nil)
}
