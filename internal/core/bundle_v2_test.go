package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/machine"
	"repro/internal/wire"
	"repro/internal/workload"
)

// recordNamed records one of the golden fixture specs fresh — the v2
// tests exercise real recordings, not synthetic bundles.
func recordNamed(t testing.TB, name string) *Bundle {
	t.Helper()
	for _, gs := range goldenSpecs() {
		if gs.Name == name {
			b, _ := goldenRecord(t, gs)
			return b
		}
	}
	t.Fatalf("no golden spec named %q", name)
	return nil
}

// marshalAs marshals b in the given format without disturbing b.Format.
func marshalAs(b *Bundle, f Format) []byte {
	old := b.Format
	b.Format = f
	data := b.Marshal()
	b.Format = old
	return data
}

// TestBundleFormatsRoundTrip decodes every format of the same recording
// and checks the results describe the identical execution: DeepEqual
// logs and state, and a bit-identical replay of the compressed bundle.
func TestBundleFormatsRoundTrip(t *testing.T) {
	for _, name := range []string{"counter-4t2c", "ioheavy-4t4c", "racy-sigs", "counter-ckpt"} {
		t.Run(name, func(t *testing.T) {
			b := recordNamed(t, name)
			ref, err := UnmarshalBundle(marshalAs(b, FormatV1))
			if err != nil {
				t.Fatal(err)
			}
			for f, want := range map[Format]Format{
				FormatV1:    FormatV1,
				FormatV2Raw: FormatV2Raw,
				FormatV2LZ:  FormatV2LZ,
			} {
				got, err := UnmarshalBundle(marshalAs(b, f))
				if err != nil {
					t.Fatalf("%v: %v", f, err)
				}
				if got.Format != want {
					t.Errorf("%v: decode stamped format %v", f, got.Format)
				}
				got.Format = ref.Format
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%v: decode differs from v1 decode", f)
				}
			}
		})
	}
}

// TestBundleReencodeIdentity is the stamping property: decode followed
// by Marshal reproduces the source bytes for every format, so stored
// recordings can be round-tripped through tooling without rewrites.
func TestBundleReencodeIdentity(t *testing.T) {
	b := recordNamed(t, "racy-sigs")
	for _, f := range []Format{FormatV1, FormatV2Raw, FormatV2LZ} {
		data := marshalAs(b, f)
		back, err := UnmarshalBundle(data)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if again := back.Marshal(); !bytes.Equal(again, data) {
			t.Errorf("%v: re-encode is not byte-identical (%d vs %d bytes)", f, len(again), len(data))
		}
	}
}

// TestBundleV2CompressionRatio is the tentpole's headline number: the
// IO-heavy recording — whose payload bytes are incompressible random
// data stored twice by v1 — must shrink at least 2x under the
// structure-aware v2 encoding, and the compressed bundle must replay
// bit-identically.
func TestBundleV2CompressionRatio(t *testing.T) {
	b := recordNamed(t, "ioheavy-4t4c")
	v1 := marshalAs(b, FormatV1)
	v2 := marshalAs(b, FormatAuto)
	ratio := float64(len(v1)) / float64(len(v2))
	t.Logf("ioheavy: v1=%d bytes, v2=%d bytes, ratio=%.4f", len(v1), len(v2), ratio)
	if ratio < 2.0 {
		t.Errorf("v2 compression ratio %.4f < 2.0 on ioheavy", ratio)
	}
	loaded, err := UnmarshalBundle(v2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Format != FormatV2LZ {
		t.Fatalf("auto encoder did not choose compression (format %v)", loaded.Format)
	}
	spec, _ := workload.ByName("ioheavy")
	prog := spec.Build(loaded.Threads)
	rr, err := Replay(prog, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(loaded, rr); err != nil {
		t.Fatalf("compressed bundle does not replay bit-identically: %v", err)
	}
}

// TestBundleVersionNegotiation covers the decode edges of the version
// and flag words: every malformed header must produce a typed
// corruption error — never a panic, never a misparse.
func TestBundleVersionNegotiation(t *testing.T) {
	b := recordNamed(t, "counter-4t2c")
	v2 := marshalAs(b, FormatV2LZ)

	t.Run("unknown-version", func(t *testing.T) {
		for _, ver := range []byte{0, 1, 4, 5, 99, 255} {
			bad := append([]byte{}, v2...)
			bad[4] = ver
			_, err := UnmarshalBundle(bad)
			if !errors.Is(err, ErrUnknownBundleVersion) {
				t.Errorf("version %d: err = %v, want ErrUnknownBundleVersion", ver, err)
			}
			// Version skew triages as corruption through both the bundle
			// and wire sentinels.
			if !errors.Is(err, ErrCorruptBundle) || !errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("version %d: err %v does not wrap the corruption sentinels", ver, err)
			}
		}
	})
	t.Run("unknown-v2-flags", func(t *testing.T) {
		for _, bit := range []uint32{1 << 5, 1 << 13, 1 << 31} {
			bad := append([]byte{}, v2...)
			flags := binary.LittleEndian.Uint32(bad[5:9])
			binary.LittleEndian.PutUint32(bad[5:9], flags|bit)
			if _, err := UnmarshalBundle(bad); !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("flag bit %#x: err = %v, want ErrCorruptBundle", bit, err)
			}
		}
	})
	t.Run("unknown-v1-flags", func(t *testing.T) {
		bad := marshalAs(b, FormatV1)
		bad[5] |= 1 << 6
		if _, err := UnmarshalBundle(bad); !errors.Is(err, ErrCorruptBundle) {
			t.Errorf("err = %v, want ErrCorruptBundle", err)
		}
	})
	t.Run("flag-method-mismatch", func(t *testing.T) {
		// An uncompressed body claiming the compressed flag (and vice
		// versa) is self-inconsistent and must be rejected.
		for _, src := range [][]byte{marshalAs(b, FormatV2Raw), v2} {
			bad := append([]byte{}, src...)
			flags := binary.LittleEndian.Uint32(bad[5:9])
			binary.LittleEndian.PutUint32(bad[5:9], flags^bflagCompressed)
			if _, err := UnmarshalBundle(bad); !errors.Is(err, ErrCorruptBundle) {
				t.Errorf("err = %v, want ErrCorruptBundle", err)
			}
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(v2); n += 1 + n/16 {
			if _, err := UnmarshalBundle(v2[:n]); err == nil {
				t.Errorf("truncation to %d bytes accepted", n)
			}
		}
	})
}

// checkpointedSigRecording records racefree on 4 threads and 4 cores
// with signatures and a checkpoint every 500 instructions.
func checkpointedSigRecording(t testing.TB) *Bundle {
	t.Helper()
	spec, _ := workload.ByName("racefree")
	b, err := Record(spec.Build(4), recordCfg(5, func(c *machine.Config) {
		c.Threads = 4
		c.CaptureSignatures = true
		c.CheckpointEveryInstrs = 500
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.IntervalCheckpoints) < 3 || b.SigLogs == nil {
		t.Fatalf("recording has %d checkpoints and signatures %v, want several checkpoints and signatures",
			len(b.IntervalCheckpoints), b.SigLogs != nil)
	}
	return b
}

// TestBundleDecoderSteadyStateAllocs pins the mmap-decode story: a
// reused BundleDecoder in alias mode decodes a bundle with no
// allocations once its storage is warm, checkpoint images and
// signature logs included.
func TestBundleDecoderSteadyStateAllocs(t *testing.T) {
	for name, b := range map[string]*Bundle{
		"counter-4t2c":      recordNamed(t, "counter-4t2c"),
		"checkpointed-sigs": checkpointedSigRecording(t),
	} {
		for _, f := range []Format{FormatV1, FormatV2Raw, FormatV2LZ} {
			data := marshalAs(b, f)
			d := &BundleDecoder{}
			if _, err := d.Decode(data); err != nil {
				t.Fatalf("%s %v: %v", name, f, err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := d.Decode(data); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s %v: %.1f allocs/op steady-state", name, f, allocs)
			if allocs != 0 {
				t.Errorf("%s %v: %.1f allocs/op steady-state, want 0", name, f, allocs)
			}
		}
	}
}

// TestBundleDecoderReuse runs one decoder per format over bundles whose
// shapes differ: A is checkpointed and carries signatures; B has
// neither and another program's memory size, as have C's checkpoint
// images; T is a tail of A; S is A without checkpoints and with no
// chunks, so no signatures, on its last thread. Each decode must equal
// UnmarshalBundle of the same bytes, so nothing a bundle lacks leaks in
// from an earlier one, and must re-marshal to those bytes.
func TestBundleDecoderReuse(t *testing.T) {
	a := checkpointedSigRecording(t)
	b := recordNamed(t, "counter-4t2c")
	c := recordNamed(t, "counter-ckpt")
	tail, err := TailAt(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := *a
	s.IntervalCheckpoints = nil
	s.ChunkLogs = append([]*chunk.Log(nil), a.ChunkLogs...)
	s.ChunkLogs[3] = &chunk.Log{}
	s.SigLogs = append([][]capo.SigPair(nil), a.SigLogs...)
	s.SigLogs[3] = nil
	if b.IntervalCheckpoints != nil || b.SigLogs != nil {
		t.Fatal("B has checkpoints or signatures")
	}
	if a.IntervalCheckpoints[0].Mem.Size() == c.IntervalCheckpoints[0].Mem.Size() {
		t.Fatal("A and C have checkpoint images of one size")
	}
	seq := []struct {
		name string
		b    *Bundle
	}{{"A", a}, {"B", b}, {"A", a}, {"C", c}, {"T", tail}, {"A", a}, {"S", &s}, {"A", a}}
	for _, f := range []Format{FormatV1, FormatV2Raw, FormatV2LZ} {
		d := &BundleDecoder{}
		for i, step := range seq {
			data := marshalAs(step.b, f)
			got, err := d.Decode(data)
			if err != nil {
				t.Fatalf("%v step %d (%s): %v", f, i, step.name, err)
			}
			want, err := UnmarshalBundle(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v step %d (%s): reused decode differs from UnmarshalBundle", f, i, step.name)
			}
			if !bytes.Equal(got.Marshal(), data) {
				t.Errorf("%v step %d (%s): reused decode does not re-marshal to its bytes", f, i, step.name)
			}
		}
	}
}

// TestOpenBundleFile exercises the zero-copy file load path end to end:
// write, map, decode, replay, close.
func TestOpenBundleFile(t *testing.T) {
	b := recordNamed(t, "ioheavy-4t4c")
	path := t.TempDir() + "/r.bundle"
	if err := os.WriteFile(path, marshalAs(b, FormatAuto), 0o644); err != nil {
		t.Fatal(err)
	}
	d := &BundleDecoder{}
	loaded, closeFn, err := OpenBundleFile(d, path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	spec, _ := workload.ByName("ioheavy")
	prog := spec.Build(loaded.Threads)
	rr, err := Replay(prog, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(loaded, rr); err != nil {
		t.Fatal(err)
	}
}

// FuzzWireV2Header fuzzes the v2 decode path with hostile bytes. The
// properties: never panic, and any input that decodes successfully must
// survive a Marshal → decode → DeepEqual round trip (the decoder only
// accepts bundles it can faithfully re-encode).
func FuzzWireV2Header(f *testing.F) {
	prog := workload.Counter(40, 2)
	b, err := Record(prog, recordCfg(9, func(c *machine.Config) { c.Threads = 2 }))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(marshalAs(b, FormatV2Raw))
	f.Add(marshalAs(b, FormatV2LZ))
	f.Add(marshalAs(b, FormatV1))
	f.Add([]byte("QRBN"))
	f.Add([]byte{'Q', 'R', 'B', 'N', 3, 0, 0, 0, 0})
	f.Add([]byte{'Q', 'R', 'B', 'N', 3, 0xff, 0xff, 0xff, 0xff, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalBundle(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptBundle) {
				t.Fatalf("decode error is not typed: %v", err)
			}
			return
		}
		again, err := UnmarshalBundle(got.Marshal())
		if err != nil {
			t.Fatalf("re-encode of accepted bundle does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatal("re-encode round trip is not stable")
		}
	})
}

// codecRecording records fft the way the analyze benchmark records its
// fixtures: 4 threads on 4 cores, signatures, a checkpoint every 20,000
// instructions.
func codecRecording(tb testing.TB) *Bundle {
	tb.Helper()
	spec, _ := workload.ByName("fft")
	b, err := Record(spec.Build(4), recordCfg(1, func(c *machine.Config) {
		c.Threads = 4
		c.CaptureSignatures = true
		c.CheckpointEveryInstrs = 20000
	}))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

var codecSink []byte

// BenchmarkBundleCodec marshals a checkpointed, signature-carrying
// recording and decodes it with a reused decoder.
func BenchmarkBundleCodec(b *testing.B) {
	rec := codecRecording(b)
	data := rec.Marshal()
	b.Logf("%d instructions, %d checkpoints, %d bytes", rec.RecordStats.Retired, len(rec.IntervalCheckpoints), len(data))
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			codecSink = rec.Marshal()
		}
	})
	b.Run("decode", func(b *testing.B) {
		var d BundleDecoder
		if _, err := d.Decode(data); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
