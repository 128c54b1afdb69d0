package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// TestAppendCursorRoundTrip drives every primitive pair and checks the
// bytes match what encoding/binary produces directly — the wire layer
// must be a byte-identical refactor of the hand-rolled codecs.
func TestAppendCursorRoundTrip(t *testing.T) {
	var a Appender
	a.Uvarint(0)
	a.Uvarint(127)
	a.Uvarint(128)
	a.Uvarint(1<<63 + 42)
	a.Byte(7)
	a.Bool(true)
	a.Bool(false)
	a.Raw([]byte{1, 2, 3})
	a.Blob([]byte("payload"))
	a.String("name")
	a.U32(0xdeadbeef)
	a.U64(0x0123456789abcdef)
	a.Int(9000)

	var want []byte
	for _, v := range []uint64{0, 127, 128, 1<<63 + 42} {
		want = binary.AppendUvarint(want, v)
	}
	want = append(want, 7, 1, 0, 1, 2, 3)
	want = binary.AppendUvarint(want, 7)
	want = append(want, "payload"...)
	want = binary.AppendUvarint(want, 4)
	want = append(want, "name"...)
	want = binary.LittleEndian.AppendUint32(want, 0xdeadbeef)
	want = binary.LittleEndian.AppendUint64(want, 0x0123456789abcdef)
	want = binary.AppendUvarint(want, 9000)
	if !bytes.Equal(a.Buf, want) {
		t.Fatalf("encoding diverges from encoding/binary:\n got %x\nwant %x", a.Buf, want)
	}

	c := CursorOf(a.Buf)
	for _, v := range []uint64{0, 127, 128, 1<<63 + 42} {
		got, err := c.Uvarint()
		if err != nil || got != v {
			t.Fatalf("Uvarint = %d, %v; want %d", got, err, v)
		}
	}
	if b, err := c.Byte(); err != nil || b != 7 {
		t.Fatalf("Byte = %d, %v", b, err)
	}
	for _, want := range []byte{1, 0} {
		if b, err := c.Byte(); err != nil || b != want {
			t.Fatalf("Bool byte = %d, %v; want %d", b, err, want)
		}
	}
	if raw, err := c.Raw(3); err != nil || !bytes.Equal(raw, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %x, %v", raw, err)
	}
	blob, err := c.Blob()
	if err != nil || string(blob) != "payload" {
		t.Fatalf("Blob = %q, %v", blob, err)
	}
	if name, err := c.View(); err != nil || string(name) != "name" {
		t.Fatalf("View = %q, %v", name, err)
	}
	if v, err := c.U32(); err != nil || v != 0xdeadbeef {
		t.Fatalf("U32 = %#x, %v", v, err)
	}
	if v, err := c.U64(); err != nil || v != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x, %v", v, err)
	}
	if v, err := c.Uvarint(); err != nil || v != 9000 {
		t.Fatalf("Int round trip = %d, %v", v, err)
	}
	if err := c.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestBlobOwnership: Blob copies, View aliases.
func TestBlobOwnership(t *testing.T) {
	var a Appender
	a.Blob([]byte{10, 20, 30})
	data := a.Buf

	c := CursorOf(data)
	blob, err := c.Blob()
	if err != nil {
		t.Fatal(err)
	}
	c2 := CursorOf(data)
	view, err := c2.View()
	if err != nil {
		t.Fatal(err)
	}
	data[1] = 99
	if blob[0] != 10 {
		t.Fatalf("Blob result aliases input: %v", blob)
	}
	if view[0] != 99 {
		t.Fatalf("View result does not alias input: %v", view)
	}
}

// TestCursorErrors pins the failure taxonomy: mid-field end is
// truncation, structural violations are corruption, and both carry the
// offset where decoding stopped.
func TestCursorErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		op   func(c *Cursor) error
		want error
	}{
		{"uvarint empty", nil, func(c *Cursor) error { _, err := c.Uvarint(); return err }, ErrTruncated},
		{"uvarint unterminated", []byte{0x80, 0x80}, func(c *Cursor) error { _, err := c.Uvarint(); return err }, ErrTruncated},
		{"uvarint overflow", bytes.Repeat([]byte{0x80}, 11), func(c *Cursor) error { _, err := c.Uvarint(); return err }, ErrCorrupt},
		{"uvarint padded", []byte{0x80, 0x00}, func(c *Cursor) error { _, err := c.Uvarint(); return err }, ErrCorrupt},
		{"varint padded", []byte{0x81, 0x80, 0x00}, func(c *Cursor) error { _, err := c.Varint(); return err }, ErrCorrupt},
		{"byte empty", nil, func(c *Cursor) error { _, err := c.Byte(); return err }, ErrTruncated},
		{"raw overrun", []byte{1}, func(c *Cursor) error { _, err := c.Raw(2); return err }, ErrTruncated},
		{"raw negative", []byte{1}, func(c *Cursor) error { _, err := c.Raw(-1); return err }, ErrTruncated},
		{"view overrun", []byte{5, 1, 2}, func(c *Cursor) error { _, err := c.View(); return err }, ErrTruncated},
		{"u32 short", []byte{1, 2, 3}, func(c *Cursor) error { _, err := c.U32(); return err }, ErrTruncated},
		{"u64 short", []byte{1, 2, 3, 4, 5, 6, 7}, func(c *Cursor) error { _, err := c.U64(); return err }, ErrTruncated},
		{"trailing", []byte{1, 2}, func(c *Cursor) error { return c.Done() }, ErrCorrupt},
	}
	for _, tc := range cases {
		c := CursorOf(tc.data)
		err := tc.op(&c)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.want)
		}
	}
}

// TestCursorSentinelSubstitution: flavored sentinels replace the shared
// ones wholesale, which is how capo/segment/bundle keep their own error
// identities while staying errors.Is-classifiable.
func TestCursorSentinelSubstitution(t *testing.T) {
	flavored := fmt.Errorf("flavored: %w", ErrTruncated)
	c := CursorWith(nil, flavored, ErrCorrupt)
	_, err := c.Uvarint()
	if !errors.Is(err, flavored) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("error %v should wrap both the flavored and shared sentinel", err)
	}
}

// TestErrorOffset: a failure names the position where decoding stopped.
func TestErrorOffset(t *testing.T) {
	var a Appender
	a.Uvarint(300) // 2 bytes
	a.Byte(1)
	data := append(a.Buf, 0x80) // unterminated varint at offset 3
	c := CursorOf(data)
	if _, err := c.Uvarint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Byte(); err != nil {
		t.Fatal(err)
	}
	_, err := c.Uvarint()
	if err == nil || !errors.Is(err, ErrTruncated) {
		t.Fatalf("want truncation, got %v", err)
	}
	if want := "at offset 3"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not carry %q", err, want)
	}
}

// TestRestSkip: the escape hatch used by decoders that hand the tail to
// a sub-decoder (chunk-entry encodings) and account for consumed bytes.
func TestRestSkip(t *testing.T) {
	c := CursorOf([]byte{1, 2, 3, 4})
	if _, err := c.Byte(); err != nil {
		t.Fatal(err)
	}
	if got := c.Rest(); !bytes.Equal(got, []byte{2, 3, 4}) {
		t.Fatalf("Rest = %v", got)
	}
	c.Skip(2)
	if c.Pos() != 3 || c.Remaining() != 1 {
		t.Fatalf("pos %d remaining %d", c.Pos(), c.Remaining())
	}
}

// TestAppenderGrowReset covers the capacity-management helpers the hot
// paths rely on.
func TestAppenderGrowReset(t *testing.T) {
	var a Appender
	a.Grow(100)
	if cap(a.Buf) < 100 || len(a.Buf) != 0 {
		t.Fatalf("Grow: len %d cap %d", len(a.Buf), cap(a.Buf))
	}
	p := &a.Buf[:1][0]
	a.Raw(bytes.Repeat([]byte{9}, 50))
	if &a.Buf[0] != p {
		t.Fatal("append within grown capacity reallocated")
	}
	if a.Len() != 50 {
		t.Fatalf("Len = %d", a.Len())
	}
	a.Reset()
	if a.Len() != 0 || cap(a.Buf) < 100 {
		t.Fatal("Reset dropped capacity")
	}
}

// TestPool: pooled appenders come back empty, and oversized buffers are
// not retained.
func TestPool(t *testing.T) {
	a := GetAppender()
	a.Raw([]byte{1, 2, 3})
	PutAppender(a)
	b := GetAppender()
	if b.Len() != 0 {
		t.Fatalf("pooled appender not reset: %d bytes", b.Len())
	}
	b.Grow(maxPooledCap + 1)
	PutAppender(b) // must drop, not pin
	c := GetAppender()
	if cap(c.Buf) > maxPooledCap {
		t.Fatalf("pool retained %d-byte buffer beyond cap bound", cap(c.Buf))
	}
	PutAppender(c)
}
