package segment_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/segment"
)

// The retention oracle: drive a windowed and an unbounded Writer
// with the same randomized write sequence (epoch and checkpoint cadences
// drawn from a seeded RNG) and check the window against first
// principles — exactly the last min(K, n) checkpoints survive a clean
// close, the retained logs are exactly the epochs of the retained
// intervals, the rendered window decodes strictly, and its size is
// bounded by the unbounded stream's tail from the base checkpoint on
// (rebasing only ever shrinks varints).

type windowRNG struct{ s uint64 }

func (r *windowRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *windowRNG) pick(n int) int { return int(r.next() % uint64(n)) }

// synthInterval is the oracle's ground truth for one checkpoint
// interval: the anchor that opened it (nil for genesis) and the log
// items its epochs carried.
type synthInterval struct {
	anchor  *capo.Checkpoint
	entries [2][]chunk.Entry
	recs    []capo.Record
}

// synthesize writes the same randomized session into both writers and
// returns the ground-truth intervals plus the unbounded stream's byte
// offset at each checkpoint write.
func synthesize(seed uint64, nCheckpoints int, bufU *bytes.Buffer, wu, ww *segment.Writer) ([]synthInterval, []int) {
	rng := &windowRNG{s: seed*2654435761 + 1}
	man := segment.Manifest{
		ProgramName: "synth", Threads: 2, StackWordsPerThread: 32,
		EncodingID: chunk.DeltaID, FlushEveryChunks: 4,
	}
	wu.WriteManifest(man)
	ww.WriteManifest(man)

	var (
		ts        uint64 = 1
		pos       [2]int
		inputs    int
		seq       [2]int
		epoch     uint64
		intervals = []synthInterval{{}}
		ckptOffs  []int
	)
	writeEpoch := func() {
		cur := &intervals[len(intervals)-1]
		var batch [2][]chunk.Entry
		for t := 0; t < 2; t++ {
			for i, n := 0, rng.pick(3); i < n; i++ {
				batch[t] = append(batch[t], chunk.Entry{
					Size: uint64(1 + rng.pick(9)), TS: ts, Reason: chunk.ReasonFlush,
				})
				ts += uint64(1 + rng.pick(3))
			}
		}
		var recs []capo.Record
		if rng.pick(2) == 0 {
			th := rng.pick(2)
			recs = append(recs, capo.Record{
				Kind: capo.KindSyscall, Thread: th, Seq: seq[th], TS: ts,
				Sysno: 7, Ret: rng.next() % 1000, Data: []byte{byte(rng.pick(256))},
			})
			seq[th]++
			ts++
		}
		if len(batch[0])+len(batch[1])+len(recs) == 0 {
			return // nothing flushed, no epoch
		}
		c := segment.Commit{
			Epoch:      epoch,
			Watermark:  []uint64{ts, ts},
			Exited:     []bool{false, false},
			ChunkCount: []int{len(batch[0]), len(batch[1])},
			InputCount: []int{0, 0},
		}
		for _, r := range recs {
			c.InputCount[r.Thread]++
		}
		epoch++
		wu.WriteCommit(c)
		ww.WriteCommit(c)
		for t := 0; t < 2; t++ {
			if len(batch[t]) == 0 {
				continue
			}
			wu.WriteChunkBatch(t, batch[t])
			ww.WriteChunkBatch(t, batch[t])
			cur.entries[t] = append(cur.entries[t], batch[t]...)
			pos[t] += len(batch[t])
		}
		if len(recs) > 0 {
			wu.WriteInputBatch(recs)
			ww.WriteInputBatch(recs)
			cur.recs = append(cur.recs, recs...)
			inputs += len(recs)
		}
	}

	for ck := 0; ck < nCheckpoints; ck++ {
		for i, n := 0, 1+rng.pick(3); i < n; i++ {
			writeEpoch()
		}
		cp := &capo.Checkpoint{
			Snapshot: capo.Snapshot{
				Mem:      imageOf([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
				Contexts: []isa.Context{{PC: 1, Retired: ts}, {PC: 2, Retired: ts}},
				Exited:   []bool{false, false},
				SigRegs:  make([][isa.NumRegs]uint64, 2),
				SigPC:    []int{0, 0},
			},
			RetiredAt: ts * 10,
			ChunkPos:  []int{pos[0], pos[1]},
			InputPos:  inputs,
		}
		ckptOffs = append(ckptOffs, bufU.Len())
		wu.WriteCheckpoint(cp)
		ww.WriteCheckpoint(cp)
		intervals = append(intervals, synthInterval{anchor: cp})
	}
	for i, n := 0, rng.pick(3); i < n; i++ {
		writeEpoch() // open-interval epochs after the last checkpoint
	}
	fin := &segment.FinalPayload{
		MemChecksum:      ts,
		Output:           []byte("done"),
		FinalContexts:    []isa.Context{{PC: 1, Retired: ts, Halted: true}, {PC: 2, Retired: ts, Halted: true}},
		RetiredPerThread: []uint64{ts, ts},
	}
	wu.WriteFinal(fin)
	ww.WriteFinal(fin)
	return intervals, ckptOffs
}

func TestWindowRetentionOracle(t *testing.T) {
	const nCheckpoints = 10
	for _, k := range []int{1, 2, 3, 8, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("K=%d/seed=%d", k, seed), func(t *testing.T) {
				var bufU, bufW bytes.Buffer
				wu := segment.NewWriter(&bufU)
				ww := segment.NewWindowWriter(&bufW, k)
				intervals, ckptOffs := synthesize(seed, nCheckpoints, &bufU, wu, ww)
				if err := wu.Close(); err != nil {
					t.Fatalf("unbounded close: %v", err)
				}
				if err := ww.Close(); err != nil {
					t.Fatalf("window close: %v", err)
				}

				retained := nCheckpoints
				if k < retained {
					retained = k
				}
				base := nCheckpoints - retained // anchor index of the window base
				evicted := base > 0
				if got := ww.Evicted(); got != evicted {
					t.Fatalf("Evicted() = %v, want %v", got, evicted)
				}

				st, rep, err := segment.Salvage(bufW.Bytes())
				if err != nil {
					t.Fatalf("salvage of clean window: %v", err)
				}
				if !rep.Complete {
					t.Fatalf("clean window not complete: %s", rep)
				}
				if rep.Window != uint64(k) {
					t.Fatalf("salvaged window K=%d, want %d", rep.Window, k)
				}
				if rep.HasBase != evicted {
					t.Fatalf("HasBase=%v, want %v", rep.HasBase, evicted)
				}

				// Exactly the last min(K, n) checkpoints survive, in order.
				if got := len(st.Checkpoints); got != retained {
					t.Fatalf("%d checkpoints survive, want %d", got, retained)
				}
				for i, cp := range st.Checkpoints {
					want := intervals[base+1+i].anchor
					if cp.RetiredAt != want.RetiredAt {
						t.Fatalf("checkpoint %d at %d retired, want %d (not the last %d checkpoints)",
							i, cp.RetiredAt, want.RetiredAt, retained)
					}
				}
				if evicted {
					if st.Base == nil {
						t.Fatal("evicted window salvaged without a base checkpoint")
					}
					for t2, p := range st.Base.ChunkPos {
						if p != 0 {
							t.Fatalf("base chunk pos[%d] = %d, want 0", t2, p)
						}
					}
					if st.Base.InputPos != 0 {
						t.Fatalf("base input pos = %d, want 0", st.Base.InputPos)
					}
				} else if st.Base != nil {
					t.Fatal("un-evicted window reports a base checkpoint")
				}

				// The retained logs are exactly the retained intervals'
				// epochs. When nothing was evicted the genesis interval
				// (program start to the first checkpoint) survives too.
				first := base + 1
				if !evicted {
					first = 0
				}
				var wantEntries [2][]chunk.Entry
				var wantRecs []capo.Record
				for _, iv := range intervals[first:] {
					for t2 := 0; t2 < 2; t2++ {
						wantEntries[t2] = append(wantEntries[t2], iv.entries[t2]...)
					}
					wantRecs = append(wantRecs, iv.recs...)
				}
				for t2 := 0; t2 < 2; t2++ {
					if got := st.ChunkLogs[t2].Entries; len(got) != len(wantEntries[t2]) {
						t.Fatalf("thread %d: %d entries retained, want %d", t2, len(got), len(wantEntries[t2]))
					} else {
						for i, e := range got {
							if e != wantEntries[t2][i] {
								t.Fatalf("thread %d entry %d: %+v, want %+v", t2, i, e, wantEntries[t2][i])
							}
						}
					}
				}
				if st.InputLog.Len() != len(wantRecs) {
					t.Fatalf("%d input records retained, want %d", st.InputLog.Len(), len(wantRecs))
				}
				for i, r := range st.InputLog.Records {
					if r.String() != wantRecs[i].String() {
						t.Fatalf("input record %d: %s, want %s", i, r.String(), wantRecs[i].String())
					}
				}
				// Rebased checkpoint positions index the retained logs.
				last := st.Checkpoints[len(st.Checkpoints)-1]
				for t2, p := range last.ChunkPos {
					if p < 0 || p > st.ChunkLogs[t2].Len() {
						t.Fatalf("last checkpoint chunk pos[%d] = %d outside retained log (%d)",
							t2, p, st.ChunkLogs[t2].Len())
					}
				}

				// Strict decode accepts the rendered window.
				if _, err := segment.Decode(bufW.Bytes()); err != nil {
					t.Fatalf("strict decode of clean window: %v", err)
				}

				// Bytes on disk are bounded by the unbounded stream's tail
				// from the base checkpoint (plus the manifest and a little
				// slack for its window fields): rebasing only shrinks.
				manEnd := segment.Offsets(bufU.Bytes())[0]
				bound := bufU.Len() + manEnd + 32
				if evicted {
					bound = manEnd + (bufU.Len() - ckptOffs[base]) + 32
					if bufW.Len() >= bufU.Len() {
						t.Errorf("evicted window is %d bytes, unbounded stream only %d", bufW.Len(), bufU.Len())
					}
				}
				if bufW.Len() > bound {
					t.Errorf("window is %d bytes, bound is %d", bufW.Len(), bound)
				}
			})
		}
	}
}

// TestWindowWriterValidation pins the windowed form's usage errors.
func TestWindowWriterValidation(t *testing.T) {
	if err := segment.NewWindowWriter(nil, 0).Err(); err == nil {
		t.Error("K=0 window accepted")
	}
	w := segment.NewWindowWriter(nil, 2)
	w.WriteCommit(segment.Commit{})
	if w.Err() == nil {
		t.Error("commit before manifest accepted")
	}
	w = segment.NewWindowWriter(nil, 2)
	w.WriteManifest(segment.Manifest{ProgramName: "x", Threads: 1, EncodingID: chunk.DeltaID})
	w.WriteChunkBatch(0, []chunk.Entry{{Size: 1, TS: 1}})
	if w.Err() == nil {
		t.Error("chunk batch outside an epoch accepted")
	}
}
