package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/machine"
	"repro/internal/signature"
	"repro/internal/workload"
)

// The golden fixtures pin the on-disk byte format: each .bundle (and
// .stream) file under testdata/golden was recorded by a past version of
// the codecs, and every later version must decode it to the same logs
// (checked against the .digest.json sidecar) and re-encode it
// byte-identically. Regenerate with QUICKREC_WRITE_GOLDEN=1 — only when
// the recorded *execution* legitimately changes, never to paper over a
// format break.
const goldenDir = "testdata/golden"

// goldenSpec pins one fixture recording. Every knob that feeds the
// scheduler or the codecs is explicit so the fixture is reproducible.
type goldenSpec struct {
	Name      string
	Workload  string
	Threads   int
	Cores     int
	Seed      uint64
	Sigs      bool   // capture per-chunk Bloom signatures (flag bit 4)
	CkptEvery uint64 // flight-recorder cadence (flag bit 8 when > 0)
	Stream    bool   // additionally record a segmented stream fixture
}

func goldenSpecs() []goldenSpec {
	return []goldenSpec{
		{Name: "counter-4t2c", Workload: "counter", Threads: 4, Cores: 2, Seed: 1},
		{Name: "ioheavy-4t4c", Workload: "ioheavy", Threads: 4, Cores: 4, Seed: 3},
		{Name: "racy-sigs", Workload: "racy", Threads: 4, Cores: 2, Seed: 5, Sigs: true},
		{Name: "counter-ckpt", Workload: "counter", Threads: 4, Cores: 2, Seed: 7, CkptEvery: 4000, Stream: true},
	}
}

func goldenRecord(t testing.TB, gs goldenSpec) (*Bundle, []byte) {
	t.Helper()
	spec, ok := workload.ByName(gs.Workload)
	if !ok {
		t.Fatalf("golden workload %q missing from catalogue", gs.Workload)
	}
	prog := spec.Build(gs.Threads)
	cfg := recordCfg(gs.Seed, func(c *machine.Config) {
		c.Cores = gs.Cores
		c.Threads = gs.Threads
		if gs.Threads > c.Cores {
			c.TimeSliceInstrs = 5000
		}
		c.CaptureSignatures = gs.Sigs
		c.CheckpointEveryInstrs = gs.CkptEvery
		if gs.Stream {
			c.FlushEveryChunks = 16
		}
	})
	var stream bytes.Buffer
	if gs.Stream {
		cfg.StreamTo = &stream
	}
	b, err := Record(prog, cfg)
	if err != nil {
		t.Fatalf("golden recording %s: %v", gs.Name, err)
	}
	return b, stream.Bytes()
}

// goldenDigest is the decoded-form fingerprint stored next to each
// fixture: counts plus an FNV-1a hash over a canonical rendering of
// every decoded log item, so a decode that drifts in any field — not
// just in length — fails the comparison.
type goldenDigest struct {
	Threads        int      `json:"threads"`
	BundleBytes    int      `json:"bundle_bytes"`
	ChunkEntries   []int    `json:"chunk_entries"`
	ChunkHash      string   `json:"chunk_hash"`
	TotalInstrs    uint64   `json:"total_instrs"`
	InputRecords   int      `json:"input_records"`
	InputDataBytes int      `json:"input_data_bytes"`
	InputHash      string   `json:"input_hash"`
	SigPairs       []int    `json:"sig_pairs,omitempty"`
	SigHash        string   `json:"sig_hash,omitempty"`
	Checkpoints    int      `json:"interval_checkpoints"`
	MemChecksum    uint64   `json:"mem_checksum"`
	OutputBytes    int      `json:"output_bytes"`
	Retired        []uint64 `json:"retired_per_thread"`
	StreamBytes    int      `json:"stream_bytes,omitempty"`
}

func digestOf(b *Bundle, bundleBytes, streamBytes int) goldenDigest {
	d := goldenDigest{
		Threads:      b.Threads,
		BundleBytes:  bundleBytes,
		Checkpoints:  len(b.IntervalCheckpoints),
		MemChecksum:  b.MemChecksum,
		OutputBytes:  len(b.Output),
		Retired:      b.RetiredPerThread,
		InputRecords: b.InputLog.Len(),
		StreamBytes:  streamBytes,
	}
	ch := fnv.New64a()
	for _, l := range b.ChunkLogs {
		d.ChunkEntries = append(d.ChunkEntries, l.Len())
		d.TotalInstrs += l.TotalInstructions()
		for _, e := range l.Entries {
			fmt.Fprintf(ch, "t%d %d %d %d %d\n", l.Thread, e.Size, e.TS, e.Reason, e.RepResidue)
		}
	}
	d.ChunkHash = fmt.Sprintf("%016x", ch.Sum64())
	ih := fnv.New64a()
	for _, r := range b.InputLog.Records {
		d.InputDataBytes += len(r.Data)
		fmt.Fprintf(ih, "%d t%d #%d %d %d %d %d %d %d %d %x\n",
			r.Kind, r.Thread, r.Seq, r.TS, r.Sysno, r.Ret, r.Addr, r.Signo, r.Retired, r.RepDone, r.Data)
	}
	d.InputHash = fmt.Sprintf("%016x", ih.Sum64())
	if b.SigLogs != nil {
		sh := fnv.New64a()
		for t, pairs := range b.SigLogs {
			d.SigPairs = append(d.SigPairs, len(pairs))
			for i, p := range pairs {
				fmt.Fprintf(sh, "t%d #%d %x %x\n", t, i, p.Read, p.Write)
			}
		}
		d.SigHash = fmt.Sprintf("%016x", sh.Sum64())
	}
	return d
}

// TestWriteGoldenFixtures regenerates the fixture set. Gated on
// QUICKREC_WRITE_GOLDEN so routine runs can never move the format
// goalposts silently.
func TestWriteGoldenFixtures(t *testing.T) {
	if os.Getenv("QUICKREC_WRITE_GOLDEN") == "" {
		t.Skip("set QUICKREC_WRITE_GOLDEN=1 to rewrite " + goldenDir)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, gs := range goldenSpecs() {
		b, stream := goldenRecord(t, gs)
		b.Format = FormatV1
		data := b.Marshal()
		if err := os.WriteFile(filepath.Join(goldenDir, gs.Name+".bundle"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		b.Format = FormatAuto
		if err := os.WriteFile(filepath.Join(goldenDir, gs.Name+".v2.bundle"), b.Marshal(), 0o644); err != nil {
			t.Fatal(err)
		}
		if gs.Stream {
			if err := os.WriteFile(filepath.Join(goldenDir, gs.Name+".stream"), stream, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		dj, err := json.MarshalIndent(digestOf(b, len(data), len(stream)), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, gs.Name+".digest.json"), append(dj, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bundle bytes, %d stream bytes", gs.Name, len(data), len(stream))
	}
}

func loadGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("golden fixture missing (QUICKREC_WRITE_GOLDEN=1 regenerates): %v", err)
	}
	return data
}

func loadDigest(t *testing.T, gs goldenSpec) goldenDigest {
	t.Helper()
	var want goldenDigest
	if err := json.Unmarshal(loadGolden(t, gs.Name+".digest.json"), &want); err != nil {
		t.Fatalf("%s digest: %v", gs.Name, err)
	}
	return want
}

// TestGoldenBundleCompat is the backward-compatibility contract for the
// bundle container and every codec nested inside it: each checked-in
// pre-refactor fixture must still decode (to the digested content) and
// re-encode byte-identically, and a fresh recording of the same spec
// must still produce the same bytes.
func TestGoldenBundleCompat(t *testing.T) {
	for _, gs := range goldenSpecs() {
		gs := gs
		t.Run(gs.Name, func(t *testing.T) {
			data := loadGolden(t, gs.Name+".bundle")
			b, err := UnmarshalBundle(data)
			if err != nil {
				t.Fatalf("fixture no longer decodes: %v", err)
			}
			if again := b.Marshal(); !bytes.Equal(again, data) {
				t.Fatalf("re-encode of fixture is not byte-identical: %d vs %d bytes", len(again), len(data))
			}
			want := loadDigest(t, gs)
			if got := digestOf(b, len(data), want.StreamBytes); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded content drifted from pre-refactor digest:\n got %+v\nwant %+v", got, want)
			}
			b2, err := UnmarshalBundle(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b.ChunkLogs, b2.ChunkLogs) || !reflect.DeepEqual(b.InputLog, b2.InputLog) ||
				!reflect.DeepEqual(b.SigLogs, b2.SigLogs) {
				t.Error("decode is not deterministic")
			}
			fresh, _ := goldenRecord(t, gs)
			fresh.Format = FormatV1
			if !bytes.Equal(fresh.Marshal(), data) {
				t.Errorf("fresh recording no longer byte-matches the fixture (encoder or recorder drifted)")
			}
			goldenSubLogRoundTrips(t, b)
			goldenV2Compat(t, gs, b)
		})
	}
}

// goldenV2Compat pins the v2 byte format the same way the v1 fixtures
// pin the legacy one: the checked-in .v2.bundle must keep decoding to
// the exact same recording the v1 fixture describes, and must keep
// re-encoding byte-identically (decode stamps the source format, so a
// round trip reproduces the source bytes for both formats).
func goldenV2Compat(t *testing.T, gs goldenSpec, v1 *Bundle) {
	t.Helper()
	data := loadGolden(t, gs.Name+".v2.bundle")
	b, err := UnmarshalBundle(data)
	if err != nil {
		t.Fatalf("v2 fixture no longer decodes: %v", err)
	}
	if b.Format != FormatV2Raw && b.Format != FormatV2LZ {
		t.Fatalf("v2 fixture decoded with format %v", b.Format)
	}
	if again := b.Marshal(); !bytes.Equal(again, data) {
		t.Fatalf("re-encode of v2 fixture is not byte-identical: %d vs %d bytes", len(again), len(data))
	}
	b.Format = v1.Format
	if !reflect.DeepEqual(b, v1) {
		t.Error("v2 fixture decodes to a different recording than the v1 fixture")
	}
}

// goldenSubLogRoundTrips checks every nested codec on the fixture's real
// data: chunk logs under all three encodings, the input log (both
// framings), and the signature pairs.
func goldenSubLogRoundTrips(t *testing.T, b *Bundle) {
	t.Helper()
	for _, enc := range chunk.Encodings() {
		for _, l := range b.ChunkLogs {
			blob := l.Marshal(enc)
			back, err := chunk.UnmarshalLog(blob)
			if err != nil {
				t.Fatalf("chunk log t%d (%s): %v", l.Thread, enc.Name(), err)
			}
			if !reflect.DeepEqual(back, l) {
				t.Fatalf("chunk log t%d (%s): decode not DeepEqual", l.Thread, enc.Name())
			}
			if !bytes.Equal(back.Marshal(enc), blob) {
				t.Fatalf("chunk log t%d (%s): re-encode not byte-identical", l.Thread, enc.Name())
			}
		}
	}
	blob := b.InputLog.Marshal()
	il, err := capo.UnmarshalInputLog(blob)
	if err != nil {
		t.Fatalf("input log: %v", err)
	}
	if !reflect.DeepEqual(il, b.InputLog) {
		t.Fatal("input log: decode not DeepEqual")
	}
	if !bytes.Equal(il.Marshal(), blob) {
		t.Fatal("input log: re-encode not byte-identical")
	}
	recBlob := capo.MarshalRecords(b.InputLog.Records)
	recs, err := capo.UnmarshalRecords(recBlob)
	if err != nil {
		t.Fatalf("record batch: %v", err)
	}
	if !bytes.Equal(capo.MarshalRecords(recs), recBlob) {
		t.Fatal("record batch: re-encode not byte-identical")
	}
	for tid, pairs := range b.SigLogs {
		for i, p := range pairs {
			for side, raw := range map[string][]byte{"read": p.Read, "write": p.Write} {
				s, err := signature.Unmarshal(raw)
				if err != nil {
					t.Fatalf("t%d chunk %d %s signature: %v", tid, i, side, err)
				}
				if !bytes.Equal(s.Marshal(), raw) {
					t.Fatalf("t%d chunk %d %s signature: re-encode not byte-identical", tid, i, side)
				}
			}
		}
	}
}

// TestGoldenStreamCompat pins the segmented stream format the same way:
// the checked-in stream still decodes as a complete stream describing
// the digested recording, and a fresh streamed recording reproduces the
// fixture bytes.
func TestGoldenStreamCompat(t *testing.T) {
	for _, gs := range goldenSpecs() {
		if !gs.Stream {
			continue
		}
		gs := gs
		t.Run(gs.Name, func(t *testing.T) {
			data := loadGolden(t, gs.Name+".stream")
			sv, err := SalvageStream(data)
			if err != nil {
				t.Fatalf("stream fixture no longer decodes: %v", err)
			}
			if sv.Bundle.Partial || !sv.Report.Complete {
				t.Fatalf("intact stream fixture salvaged as partial: %s", sv.Report)
			}
			want := loadDigest(t, gs)
			if want.StreamBytes != len(data) {
				t.Errorf("stream fixture is %d bytes, digest recorded %d", len(data), want.StreamBytes)
			}
			b := sv.Bundle
			var totalInstrs uint64
			for i, l := range b.ChunkLogs {
				if l.Len() != want.ChunkEntries[i] {
					t.Errorf("thread %d: %d entries, digest %d", i, l.Len(), want.ChunkEntries[i])
				}
				totalInstrs += l.TotalInstructions()
			}
			if totalInstrs != want.TotalInstrs {
				t.Errorf("stream carries %d instructions, digest %d", totalInstrs, want.TotalInstrs)
			}
			if b.InputLog.Len() != want.InputRecords {
				t.Errorf("stream carries %d input records, digest %d", b.InputLog.Len(), want.InputRecords)
			}
			if b.MemChecksum != want.MemChecksum {
				t.Errorf("final mem checksum %#x, digest %#x", b.MemChecksum, want.MemChecksum)
			}
			_, fresh := goldenRecord(t, gs)
			if !bytes.Equal(fresh, data) {
				t.Errorf("fresh streamed recording no longer byte-matches the fixture")
			}
			// The salvaged stream is the same recording as the bundle
			// fixtures, checkpoints included: it marshals to their bytes.
			for _, name := range []string{gs.Name + ".bundle", gs.Name + ".v2.bundle"} {
				want := loadGolden(t, name)
				fixture, err := UnmarshalBundle(want)
				if err != nil {
					t.Fatal(err)
				}
				b.Format = fixture.Format
				if !bytes.Equal(b.Marshal(), want) {
					t.Errorf("salvaged stream marshals differently from %s as %v", name, b.Format)
				}
			}
		})
	}
}
