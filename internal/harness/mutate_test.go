package harness

import (
	"bytes"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/wire"
)

// testRecording records a small two-thread workload on one core: enough
// chunks, syscalls and preemptions to give every fault class a site.
func testRecording(t *testing.T) (*isa.Program, *core.Bundle) {
	t.Helper()
	prog, err := buildProgram("ioheavy", 2)
	if err != nil {
		t.Fatalf("buildProgram: %v", err)
	}
	rec, err := core.Record(prog, recordConfig(1, 2, 21))
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	return prog, rec
}

func TestMutatorDeterminism(t *testing.T) {
	a, b := &mutator{rng: 77}, &mutator{rng: 77}
	for i := 0; i < 100; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("streams diverge at %d: %#x vs %#x", i, x, y)
		}
	}
	// Zero seed must not produce the all-zero fixed point.
	z := &mutator{}
	if z.next() == 0 || z.next() == 0 {
		t.Errorf("zero-seeded mutator emitted zero")
	}
	m := &mutator{rng: 5}
	for i := 0; i < 1000; i++ {
		if v := m.pick(7); v < 0 || v >= 7 {
			t.Fatalf("pick(7) out of range: %d", v)
		}
	}
}

// TestScheduleKeyProjection pins which fields the semantic projection
// sees. Fields replay consumes (chunk sizes, REP residues, record
// payloads, the TS order) must change the key; fields replay ignores
// (chunk close reasons, signal numbers, sequence numbers, the raw TS
// values when the order is unchanged) must not.
func TestScheduleKeyProjection(t *testing.T) {
	_, rec := testRecording(t)
	orig := scheduleKey(rec)

	mutations := []struct {
		name      string
		wantEqual bool
		apply     func(b *core.Bundle) bool // false = no site in this recording
	}{
		{"chunk reason change", true, func(b *core.Bundle) bool {
			for _, l := range b.ChunkLogs {
				if len(l.Entries) > 0 {
					l.Entries[0].Reason ^= 1
					return true
				}
			}
			return false
		}},
		{"record seq change", true, func(b *core.Bundle) bool {
			if len(b.InputLog.Records) == 0 {
				return false
			}
			b.InputLog.Records[0].Seq += 100
			return true
		}},
		{"uniform TS inflation keeps order", true, func(b *core.Bundle) bool {
			for _, l := range b.ChunkLogs {
				for i := range l.Entries {
					l.Entries[i].TS *= 2
				}
			}
			for i := range b.InputLog.Records {
				b.InputLog.Records[i].TS *= 2
			}
			return true
		}},
		{"chunk size change", false, func(b *core.Bundle) bool {
			for _, l := range b.ChunkLogs {
				if len(l.Entries) > 0 {
					l.Entries[0].Size++
					return true
				}
			}
			return false
		}},
		{"record ret change", false, func(b *core.Bundle) bool {
			for i := range b.InputLog.Records {
				if b.InputLog.Records[i].Kind == capo.KindSyscall {
					b.InputLog.Records[i].Ret ^= 0xff
					return true
				}
			}
			return false
		}},
		{"record data change", false, func(b *core.Bundle) bool {
			for i := range b.InputLog.Records {
				r := &b.InputLog.Records[i]
				if len(r.Data) > 0 {
					r.Data = append([]byte(nil), r.Data...)
					r.Data[0] ^= 0x55
					return true
				}
			}
			return false
		}},
		{"dropped chunk entry", false, func(b *core.Bundle) bool {
			for _, l := range b.ChunkLogs {
				if len(l.Entries) > 1 {
					l.Entries = l.Entries[:len(l.Entries)-1]
					return true
				}
			}
			return false
		}},
	}
	for _, mu := range mutations {
		t.Run(mu.name, func(t *testing.T) {
			b := copyBundle(rec)
			if !mu.apply(b) {
				t.Skipf("no site for %q in this recording", mu.name)
			}
			equal := bytes.Equal(scheduleKey(b), orig)
			if equal != mu.wantEqual {
				t.Errorf("key equality after %q = %v, want %v", mu.name, equal, mu.wantEqual)
			}
		})
	}
}

func TestCopyBundleIndependence(t *testing.T) {
	_, rec := testRecording(t)
	before := rec.Marshal()
	cp := copyBundle(rec)

	for _, l := range cp.ChunkLogs {
		for i := range l.Entries {
			l.Entries[i].Size += 999
			l.Entries[i].TS += 999
		}
	}
	for i := range cp.InputLog.Records {
		cp.InputLog.Records[i].Ret ^= 0xdead
		cp.InputLog.Records[i].TS += 999
	}
	cp.ChunkLogs[0].Entries = append(cp.ChunkLogs[0].Entries, chunk.Entry{Size: 1, TS: 1 << 60})
	cp.InputLog.Records = append(cp.InputLog.Records, capo.Record{Kind: capo.KindSyscall})

	if !bytes.Equal(rec.Marshal(), before) {
		t.Errorf("mutating the copy changed the original bundle")
	}
}

func TestAdjacentSameThread(t *testing.T) {
	mk := func(threads ...int) []capo.Record {
		out := make([]capo.Record, len(threads))
		for i, th := range threads {
			out[i].Thread = th
		}
		return out
	}
	cases := []struct {
		name string
		recs []capo.Record
		want [][2]int
	}{
		{"empty", nil, nil},
		{"single", mk(0), nil},
		{"no repeats", mk(0, 1, 2), nil},
		{"adjacent pair", mk(0, 0), [][2]int{{0, 1}}},
		{"interleaved", mk(0, 1, 0, 1), [][2]int{{0, 2}, {1, 3}}},
		{"chain", mk(2, 2, 2), [][2]int{{0, 1}, {1, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := adjacentSameThread(tc.recs)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("pair %d: got %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestLieAboutCount checks the header rewrite against real marshaled
// logs: the body must be untouched and the count must be the lie.
func TestLieAboutCount(t *testing.T) {
	_, rec := testRecording(t)

	t.Run("chunk log", func(t *testing.T) {
		blob := rec.ChunkLogs[0].Marshal(chunk.Delta{})
		lied, detail, ok := lieAboutCount(blob, true, &mutator{rng: 1})
		if !ok {
			t.Fatalf("lieAboutCount not applicable to a real chunk log")
		}
		if detail == "" {
			t.Errorf("empty detail")
		}
		// Re-read the count field from the lied blob and compare.
		readCount := func(b []byte) uint64 {
			c := wire.CursorOf(b)
			c.Skip(6)
			if _, err := c.Uvarint(); err != nil { // thread
				t.Fatalf("thread uvarint: %v", err)
			}
			v, err := c.Uvarint()
			if err != nil {
				t.Fatalf("count uvarint: %v", err)
			}
			return v
		}
		origCount := readCount(blob)
		liedCount := readCount(lied)
		if origCount == liedCount {
			t.Errorf("count unchanged: %d", origCount)
		}
	})

	t.Run("input log", func(t *testing.T) {
		blob := rec.InputLog.Marshal()
		lied, _, ok := lieAboutCount(blob, false, &mutator{rng: 2})
		if !ok {
			t.Fatalf("lieAboutCount not applicable to a real input log")
		}
		readCount := func(b []byte) uint64 {
			c := wire.CursorOf(b)
			c.Skip(5)
			v, err := c.Uvarint()
			if err != nil {
				t.Fatalf("count uvarint: %v", err)
			}
			return v
		}
		origCount := readCount(blob)
		liedCount := readCount(lied)
		if origCount == liedCount {
			t.Errorf("count unchanged: %d", origCount)
		}
		// The lie must be caught at decode or at replay — never accepted
		// silently; exercise the decoder directly.
		if il, err := capo.UnmarshalInputLog(lied); err == nil && len(il.Records) == int(origCount) {
			t.Errorf("decoder returned the original %d records despite lied count %d", origCount, liedCount)
		}
	})
}

// TestInjectOnceNeverSilent hammers one recording with every class and
// asserts the zero-tolerance invariant directly at the injectOnce level.
func TestInjectOnceNeverSilent(t *testing.T) {
	prog, rec := testRecording(t)
	rr, err := core.Replay(prog, rec)
	if err != nil {
		t.Fatalf("pristine replay: %v", err)
	}
	if err := core.Verify(rec, rr); err != nil {
		t.Fatalf("pristine verify: %v", err)
	}
	maxSteps := rr.Steps*4 + 100_000
	origKey := scheduleKey(rec)

	for _, class := range AllFaults() {
		m := &mutator{rng: 0xabcdef ^ hashCell("unit", 1, 0)}
		material := 0
		for attempt := 0; attempt < 60; attempt++ {
			out, detail := injectOnce(prog, rec, origKey, maxSteps, class, m)
			if out == OutcomeSilent {
				t.Errorf("%s: SILENT outcome: %s", class, detail)
			}
			if out == OutcomeDecode || out == OutcomeReplay || out == OutcomeVerify {
				material++
			}
		}
		if material == 0 {
			t.Errorf("%s: no material fault found in 60 attempts", class)
		}
	}
}

// TestInjectOnceLeavesOriginalIntact pins that injection never corrupts
// the shared reference recording across many attempts.
func TestInjectOnceLeavesOriginalIntact(t *testing.T) {
	prog, rec := testRecording(t)
	before := rec.Marshal()
	m := &mutator{rng: 31}
	for _, class := range AllFaults() {
		for attempt := 0; attempt < 10; attempt++ {
			injectOnce(prog, rec, scheduleKey(rec), 1_000_000, class, m)
		}
	}
	if !bytes.Equal(rec.Marshal(), before) {
		t.Fatalf("injectOnce mutated the original recording")
	}
}
