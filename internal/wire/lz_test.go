package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// lzAppendRef is the original encoder: a fresh zeroed hash table per
// call and byte-at-a-time match extension. Its token stream defines the
// format, so lzAppend must reproduce it exactly.
func lzAppendRef(dst []byte, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	a := AppenderOf(dst)
	if len(src) < lzMinMatch {
		a.Uvarint(uint64(len(src)))
		a.Raw(src)
		return a.Buf
	}
	table := make([]int32, lzTableSize)
	lit := 0
	i := 1
	for i+lzMinMatch <= len(src) {
		cur := lzLoad32(src, i)
		h := lzHash(cur)
		j := int(table[h])
		table[h] = int32(i)
		if j < i && lzLoad32(src, j) == cur {
			l := lzMinMatch
			for i+l < len(src) && src[j+l] == src[i+l] {
				l++
			}
			a.Uvarint(uint64(i - lit))
			a.Raw(src[lit:i])
			a.Uvarint(uint64(l))
			a.Uvarint(uint64(i - j))
			i += l
			lit = i
			continue
		}
		i++
	}
	if lit < len(src) || lit == 0 {
		a.Uvarint(uint64(len(src) - lit))
		a.Raw(src[lit:])
	}
	return a.Buf
}

// goldenBodies returns the raw bodies of the golden v2 bundles: a
// 9-byte header, then one block.
func goldenBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../core/testdata/golden/*.v2.bundle")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no golden v2 bundles (%v)", err)
	}
	bodies := make(map[string][]byte)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		c := CursorOf(data[9:])
		body, _, err := DecodeBlock(&c, nil)
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		bodies[filepath.Base(p)] = body
	}
	return bodies
}

// lzInputs are the inputs the encoder is held to the reference on.
func lzInputs(tb testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(5))
	random := make([]byte, 20000)
	rng.Read(random)
	in := map[string][]byte{
		"empty":    {},
		"zero-run": make([]byte, 70000),
		"random":   random,
	}
	for n := 1; n <= 3; n++ {
		in[fmt.Sprintf("short-%d", n)] = random[:n]
	}
	for p := 1; p <= 16; p++ {
		period := random[100 : 100+p]
		var b []byte
		for len(b) < 3000+p {
			b = append(b, period...)
		}
		// A literal head and a broken tail make the runs start and end
		// mid-word.
		b = append(append([]byte{byte(p)}, b...), random[:p]...)
		in[fmt.Sprintf("period-%d", p)] = b
	}
	for name, body := range goldenBodies(tb) {
		in[name] = body
	}
	return in
}

// TestLZMatchesReference holds the encoder to the reference token
// stream byte for byte, appended onto a non-empty dst, twice in a row
// so the second call reuses a pooled table; each stream must expand
// back to its input.
func TestLZMatchesReference(t *testing.T) {
	for name, src := range lzInputs(t) {
		want := lzAppendRef([]byte("prefix"), src)
		for pass := 0; pass < 2; pass++ {
			if got := lzAppend([]byte("prefix"), src); !bytes.Equal(got, want) {
				t.Fatalf("%s (pass %d): %d token bytes differ from the reference's %d", name, pass, len(got), len(want))
			}
		}
		c := CursorOf(want[len("prefix"):])
		out, err := lzExpand(nil, &c, len(src))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("%s: expand: %v (%d bytes, want %d)", name, err, len(out), len(src))
		}
	}
}

// TestLZAppendAllocs pins the encoder's steady state: with room in dst
// it allocates nothing, hash table included.
func TestLZAppendAllocs(t *testing.T) {
	src := lzInputs(t)["counter-ckpt.v2.bundle"]
	dst := make([]byte, 0, len(src)+64)
	allocs := testing.AllocsPerRun(100, func() { dst = lzAppend(dst[:0], src) })
	if allocs != 0 {
		t.Errorf("lzAppend: %.1f allocs/op in steady state, want 0", allocs)
	}
}

// FuzzLZ requires the encoder to match the reference and its token
// stream to expand back to the input.
func FuzzLZ(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add(make([]byte, 100))
	f.Add(bytes.Repeat([]byte("abcabcabd"), 40))
	f.Add([]byte("the quick brown fox jumps over the quick brown dog"))
	f.Fuzz(func(t *testing.T, src []byte) {
		got := lzAppend(nil, src)
		if want := lzAppendRef(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("token stream %x, reference %x", got, want)
		}
		c := CursorOf(got)
		out, err := lzExpand(nil, &c, len(src))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("expand: %v (%x, want %x)", err, out, src)
		}
	})
}

// BenchmarkLZ encodes and expands a zero run, a periodic input, random
// bytes and the body of a checkpointed bundle.
func BenchmarkLZ(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 64<<10)
	rng.Read(random)
	inputs := []struct {
		name string
		data []byte
	}{
		{"zero-run", make([]byte, 64<<10)},
		{"periodic", bytes.Repeat([]byte("chunk-entry:"), 64<<10/12)},
		{"random", random},
		{"checkpointed-body", goldenBodies(b)["counter-ckpt.v2.bundle"]},
	}
	for _, in := range inputs {
		tokens := lzAppend(nil, in.data)
		b.Run("encode/"+in.name, func(b *testing.B) {
			dst := make([]byte, 0, len(tokens))
			b.SetBytes(int64(len(in.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = lzAppend(dst[:0], in.data)
			}
		})
		b.Run("expand/"+in.name, func(b *testing.B) {
			out := make([]byte, 0, len(in.data))
			b.SetBytes(int64(len(in.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := CursorOf(tokens)
				var err error
				if out, err = lzExpand(out[:0], &c, len(in.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
