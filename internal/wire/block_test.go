package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

func roundTripBlock(t *testing.T, data []byte) byte {
	t.Helper()
	var a Appender
	method := AppendBlock(&a, data)
	c := CursorOf(a.Buf)
	got, gotMethod, err := DecodeBlock(&c, nil)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if gotMethod != method {
		t.Fatalf("method: got %d want %d", gotMethod, method)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: got %d bytes want %d", len(got), len(data))
	}
	if err := c.Done(); err != nil {
		t.Fatalf("trailing bytes after block: %v", err)
	}
	return method
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 4096)
	rng.Read(random)
	runs := bytes.Repeat([]byte{0xAB}, 100_000)
	periodic := bytes.Repeat([]byte("chunk-entry:"), 2048)
	dup := append(append([]byte(nil), random...), random...) // long-range duplicate

	cases := []struct {
		name     string
		data     []byte
		wantLZ   bool
		maxRatio float64 // compressed/raw must be below this when wantLZ
	}{
		{"empty", nil, false, 0},
		{"tiny", []byte{1, 2, 3}, false, 0},
		{"random", random, false, 0},
		{"runs", runs, true, 0.001},
		{"periodic", periodic, true, 0.01},
		{"long-range-dup", dup, true, 0.51},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := roundTripBlock(t, tc.data)
			if tc.wantLZ {
				if method != BlockLZ {
					t.Fatalf("expected LZ framing for %s", tc.name)
				}
				var a Appender
				AppendBlock(&a, tc.data)
				if ratio := float64(a.Len()) / float64(len(tc.data)); ratio > tc.maxRatio {
					t.Fatalf("ratio %.4f exceeds %.4f", ratio, tc.maxRatio)
				}
			} else if method != BlockRaw {
				t.Fatalf("expected raw framing for %s", tc.name)
			}
		})
	}
}

func TestBlockForcedMethodRoundTrips(t *testing.T) {
	// Re-encode identity requires honoring a stored method even when
	// the other would win; raw framing of compressible data and LZ
	// framing of incompressible data must both round-trip.
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 1024)
	rng.Read(random)
	for _, tc := range []struct {
		name   string
		data   []byte
		method byte
	}{
		{"raw-of-compressible", bytes.Repeat([]byte{7}, 4096), BlockRaw},
		{"lz-of-incompressible", random, BlockLZ},
		{"lz-of-empty", nil, BlockLZ},
	} {
		var a Appender
		AppendBlockMethod(&a, tc.data, tc.method)
		c := CursorOf(a.Buf)
		got, method, err := DecodeBlock(&c, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if method != tc.method || !bytes.Equal(got, tc.data) {
			t.Fatalf("%s: method %d, %d bytes", tc.name, method, len(got))
		}
	}
}

func TestBlockDecodeReusesDst(t *testing.T) {
	data := bytes.Repeat([]byte("ts-delta "), 4096)
	var a Appender
	if AppendBlock(&a, data) != BlockLZ {
		t.Fatal("expected compressible input to take the LZ path")
	}
	dst := make([]byte, 0, len(data))
	allocs := testing.AllocsPerRun(50, func() {
		c := CursorOf(a.Buf)
		out, _, err := DecodeBlock(&c, dst)
		if err != nil || len(out) != len(data) {
			t.Fatalf("decode: %v (%d bytes)", err, len(out))
		}
	})
	if allocs > 0 {
		t.Fatalf("decompressing into a presized dst allocated %.1f/op", allocs)
	}
}

func TestBlockCorruption(t *testing.T) {
	valid := func() []byte {
		var a Appender
		AppendBlockMethod(&a, bytes.Repeat([]byte{3, 1, 4, 1, 5, 9}, 64), BlockLZ)
		return a.Buf
	}()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad-method", []byte{9, 4, 2, 1, 2}, ErrCorrupt},
		{"raw-len-mismatch", []byte{0, 5, 2, 1, 2}, ErrCorrupt},
		{"giant-rawlen", []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0}, ErrCorrupt},
		{"truncated-payload", valid[:len(valid)-3], ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := CursorOf(tc.data)
			if _, _, err := DecodeBlock(&c, nil); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	// Token-level corruption inside the LZ payload: flip every byte in
	// turn. The block layer carries no checksum (integrity lives at the
	// segment CRC and ingest digest layers), so a flipped literal can
	// decode cleanly to different bytes — what must hold is that every
	// failure is typed and nothing panics.
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xFF
		c := CursorOf(mut)
		_, _, err := DecodeBlock(&c, nil)
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("byte %d: untyped error %v", i, err)
		}
	}
}

// TestBlockDecodeMaxRefusesBeforeExpanding checks DecodeBlockMax's
// limit: a block at the limit decodes, and a valid block one byte over
// it is refused as corrupt without being expanded.
func TestBlockDecodeMaxRefusesBeforeExpanding(t *testing.T) {
	data := make([]byte, 1<<20)
	var a Appender
	if AppendBlock(&a, data) != BlockLZ {
		t.Fatal("expected compressible input to take the LZ path")
	}
	c := CursorOf(a.Buf)
	if out, _, err := DecodeBlockMax(&c, nil, uint64(len(data))); err != nil || len(out) != len(data) {
		t.Fatalf("block at its limit: %d bytes, %v", len(out), err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c = CursorOf(a.Buf)
	_, _, err := DecodeBlockMax(&c, nil, uint64(len(data)-1))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("block over its limit: %v, want a corruption error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
		t.Errorf("refusing an oversized block allocated %d bytes", n)
	}
}

func TestBlockFlavoredSentinels(t *testing.T) {
	flavorC := errors.New("flavored corrupt")
	c := CursorWith([]byte{9, 4, 2, 1, 2}, errors.New("flavored trunc"), flavorC)
	if _, _, err := DecodeBlock(&c, nil); !errors.Is(err, flavorC) {
		t.Fatalf("block error lost the container's sentinel: %v", err)
	}
}

func TestLZDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 32768)
	rng.Read(data)
	copy(data[16384:], data[:8192]) // some long-range structure
	first := lzAppend(nil, data)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(lzAppend(nil, data), first) {
			t.Fatal("lzAppend is not deterministic")
		}
	}
}
