package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWireCursor drives the raw cursor primitives over arbitrary bytes
// in a data-directed order (the first byte scripts which primitives run)
// and pins the invariants every codec depends on: no panic, the cursor
// position stays in bounds, every failure wraps exactly one of the two
// shared sentinels, and every input a Cursor accepts is canonical:
// re-encoding the decoded values with an Appender reproduces the bytes
// consumed, exactly. Padded varints are the one non-minimal form the
// primitives could read, and the Cursor refuses them.
func FuzzWireCursor(f *testing.F) {
	// Canonical sequences for each script.
	var a Appender
	a.Uvarint(300)
	a.Byte(7)
	a.Blob([]byte("data"))
	f.Add(append([]byte{0}, a.Buf...))
	var b Appender
	b.U32(0xdeadbeef)
	b.U64(1 << 40)
	b.Uvarint(0)
	f.Add(append([]byte{1}, b.Buf...))
	var c Appender
	c.String("quickrec")
	c.Bool(true)
	f.Add(append([]byte{2}, c.Buf...))
	var d Appender
	d.Varint(-300)
	d.Byte(7)
	f.Add(append([]byte{3}, d.Buf...))
	// Hostile shapes: unterminated varint, overflow varint, huge length
	// prefix, padded varints, empty input.
	f.Add([]byte{0, 0x80, 0x80})
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0x80}, 11)...))
	f.Add([]byte{0, 0x01, 0x07, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0, 0x80, 0x00, 0x07, 0x00})
	f.Add([]byte{3, 0xd7, 0x84, 0x00, 0x07})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		script, body := data[0]%4, data[1:]

		// Decode body's primitives per script, appending each value onto
		// re.
		var re Appender
		cur := CursorOf(body)
		step := func(dec func() (any, error), enc func(any)) bool {
			v, err := dec()
			if err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v wraps neither shared sentinel", err)
				}
				return false
			}
			enc(v)
			return true
		}
		uvar := func() bool {
			return step(func() (any, error) { v, err := cur.Uvarint(); return v, err },
				func(v any) { re.Uvarint(v.(uint64)) })
		}
		byt := func() bool {
			return step(func() (any, error) { v, err := cur.Byte(); return v, err },
				func(v any) { re.Byte(v.(byte)) })
		}
		blob := func() bool {
			return step(func() (any, error) { v, err := cur.Blob(); return v, err },
				func(v any) { re.Blob(v.([]byte)) })
		}
		ok := false
		switch script {
		case 0:
			ok = uvar() && byt() && blob()
		case 1:
			ok = step(func() (any, error) { v, err := cur.U32(); return v, err },
				func(v any) { re.U32(v.(uint32)) }) &&
				step(func() (any, error) { v, err := cur.U64(); return v, err },
					func(v any) { re.U64(v.(uint64)) }) &&
				uvar()
		case 2:
			ok = blob() && byt()
		case 3:
			ok = step(func() (any, error) { v, err := cur.Varint(); return v, err },
				func(v any) { re.Varint(v.(int64)) }) && byt()
		}
		if cur.Pos() < 0 || cur.Pos() > len(body) {
			t.Fatalf("cursor position %d outside [0,%d]", cur.Pos(), len(body))
		}
		// Byte identity: decode → re-encode reproduces what was read (the
		// metamorphic identity the codec layer relies on).
		if ok && !bytes.Equal(re.Buf, body[:cur.Pos()]) {
			t.Fatalf("accepted %x re-encodes as %x", body[:cur.Pos()], re.Buf)
		}
	})
}
