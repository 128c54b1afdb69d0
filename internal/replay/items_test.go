package replay

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
)

// cloneInput deep-copies the logs so a test can rewrite timestamps.
func cloneInput(in Input) Input {
	out := in
	out.ChunkLogs = make([]*chunk.Log, len(in.ChunkLogs))
	for t, l := range in.ChunkLogs {
		out.ChunkLogs[t] = &chunk.Log{Thread: l.Thread, Entries: append([]chunk.Entry(nil), l.Entries...)}
	}
	out.InputLog = &capo.InputLog{Records: append([]capo.Record(nil), in.InputLog.Records...)}
	return out
}

// referenceSchedule is ScheduleOf built from the stable-sort reference:
// each thread's sortItems stream, merged by (TS, thread).
func referenceSchedule(in Input) []ScheduledItem {
	var out []ScheduledItem
	for t := 0; t < in.Threads; t++ {
		for _, it := range sortItems(nil, in.ChunkLogs[t].Entries, in.InputLog.Records, t) {
			out = append(out, ScheduledItem{Thread: t, IsChunk: it.kind == itemChunk, Entry: it.entry, Rec: it.rec})
		}
	}
	ts := func(s ScheduledItem) uint64 {
		if s.IsChunk {
			return s.Entry.TS
		}
		return s.Rec.TS
	}
	sort.SliceStable(out, func(i, j int) bool { return ts(out[i]) < ts(out[j]) })
	return out
}

// TestBuildItemsMatchesStableSort checks the two-way merge against the
// stable sort of chunks-then-inputs it replaced, on recorded logs, on
// logs whose input records tie with chunks, and on logs with shuffled
// timestamps (which take the fallback).
func TestBuildItemsMatchesStableSort(t *testing.T) {
	type variant struct {
		name string
		edit func(in Input, rng *rand.Rand)
	}
	variants := []variant{
		{"recorded", func(Input, *rand.Rand) {}},
		{"input-ties-previous-chunk", func(in Input, _ *rand.Rand) {
			for i := range in.InputLog.Records {
				in.InputLog.Records[i].TS--
			}
		}},
		{"input-ties-next-chunk", func(in Input, _ *rand.Rand) {
			for i := range in.InputLog.Records {
				in.InputLog.Records[i].TS++
			}
		}},
		{"chunk-ties", func(in Input, _ *rand.Rand) {
			for _, l := range in.ChunkLogs {
				for i := 1; i < len(l.Entries); i += 2 {
					l.Entries[i].TS = l.Entries[i-1].TS
				}
			}
		}},
		{"shuffled-chunks", func(in Input, rng *rand.Rand) {
			for _, l := range in.ChunkLogs {
				rng.Shuffle(len(l.Entries), func(i, j int) {
					l.Entries[i].TS, l.Entries[j].TS = l.Entries[j].TS, l.Entries[i].TS
				})
			}
		}},
		{"shuffled-inputs", func(in Input, rng *rand.Rand) {
			recs := in.InputLog.Records
			rng.Shuffle(len(recs), func(i, j int) { recs[i].TS, recs[j].TS = recs[j].TS, recs[i].TS })
		}},
		{"coarse-timestamps", func(in Input, _ *rand.Rand) {
			// Rounding makes equal-TS runs inside and across both streams
			// while keeping each stream in order.
			for _, l := range in.ChunkLogs {
				for i := range l.Entries {
					l.Entries[i].TS /= 8
				}
			}
			for i := range in.InputLog.Records {
				in.InputLog.Records[i].TS /= 8
			}
		}},
	}
	for _, name := range []string{"kvserver", "sigserver", "ioheavy", "counter"} {
		cfg := recordConfig(3)
		cfg.SignalPeriodInstrs = 700
		rec := recordedInput(t, name, cfg)
		for _, v := range variants {
			in := cloneInput(rec)
			v.edit(in, rand.New(rand.NewSource(7)))
			for th := 0; th < in.Threads; th++ {
				got := buildItems(in, th)
				want := sortItems(nil, in.ChunkLogs[th].Entries, in.InputLog.Records, th)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: thread %d items differ from the stable-sort reference", name, v.name, th)
				}
			}
			if got, want := ScheduleOf(in), referenceSchedule(in); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: ScheduleOf differs from the stable-sort reference", name, v.name)
			}
		}
	}
}
