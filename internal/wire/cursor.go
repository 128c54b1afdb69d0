package wire

import "encoding/binary"

// Cursor is a bounds-checked decoder over a byte slice. Every failure
// wraps one of two sentinels — a truncation error when the input ends
// mid-field, a corruption error on structural violations — and carries
// the byte offset where decoding stopped, so a failure deep inside a
// nested log still names the exact position in the enclosing buffer.
//
// The sentinels default to ErrTruncated / ErrCorrupt; a codec with its
// own error identity (capo's ErrCorruptInput, segment's torn-stream
// errors, the bundle's ErrCorruptBundle) substitutes flavored sentinels
// with CursorWith — those must themselves wrap the shared ones so
// errors.Is triage keeps working across all five formats.
type Cursor struct {
	data    []byte
	pos     int
	overrun bool // a Skip ran past the buffer; every later read fails
	trunc   error
	corrupt error
}

// CursorOf returns a cursor over data using the shared sentinels.
func CursorOf(data []byte) Cursor {
	return Cursor{data: data, trunc: ErrTruncated, corrupt: ErrCorrupt}
}

// CursorWith returns a cursor whose failures wrap the given sentinels
// instead of the shared ones. Pass errors that themselves wrap
// ErrTruncated / ErrCorrupt.
func CursorWith(data []byte, trunc, corrupt error) Cursor {
	return Cursor{data: data, trunc: trunc, corrupt: corrupt}
}

// Pos returns the current offset.
func (c *Cursor) Pos() int { return c.pos }

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.data) - c.pos }

// Rest returns the unread tail of the buffer without consuming it.
// Zero-copy: the result aliases the cursor's data.
func (c *Cursor) Rest() []byte { return c.data[c.pos:] }

// Skip advances past n bytes already consumed externally (e.g. by a
// sub-decoder handed Rest()). A skip beyond the remaining bytes means
// the sub-decoder over-reported its consumption: the cursor clamps to
// the end and poisons itself, so every subsequent read returns the
// corruption sentinel instead of panicking on a slice bound.
func (c *Cursor) Skip(n int) {
	if n < 0 || n > len(c.data)-c.pos {
		c.pos = len(c.data)
		c.overrun = true
		return
	}
	c.pos += n
}

// Sub returns a cursor over data that inherits this cursor's flavored
// sentinels, for decoding a nested payload (e.g. a compressed block's
// token stream) with the same error identity as the container.
func (c *Cursor) Sub(data []byte) Cursor {
	return Cursor{data: data, trunc: c.trunc, corrupt: c.corrupt}
}

// poisoned reports the sticky out-of-range-Skip error, if any.
func (c *Cursor) poisoned() error {
	if !c.overrun {
		return nil
	}
	return c.corruptf("read after out-of-range skip")
}

// Uvarint decodes one unsigned LEB128 varint.
func (c *Cursor) Uvarint() (uint64, error) {
	if err := c.poisoned(); err != nil {
		return 0, err
	}
	v, n := binary.Uvarint(c.data[c.pos:])
	if n == 0 {
		return 0, c.truncated("input ends mid-varint")
	}
	if n < 0 {
		return 0, c.corruptf("varint overflow")
	}
	c.pos += n
	return v, nil
}

// Varint decodes one zigzag-encoded signed LEB128 varint.
func (c *Cursor) Varint() (int64, error) {
	if err := c.poisoned(); err != nil {
		return 0, err
	}
	v, n := binary.Varint(c.data[c.pos:])
	if n == 0 {
		return 0, c.truncated("input ends mid-varint")
	}
	if n < 0 {
		return 0, c.corruptf("varint overflow")
	}
	c.pos += n
	return v, nil
}

// Byte decodes one raw byte.
func (c *Cursor) Byte() (byte, error) {
	if err := c.poisoned(); err != nil {
		return 0, err
	}
	if c.pos >= len(c.data) {
		return 0, c.truncated("input ends mid-field")
	}
	b := c.data[c.pos]
	c.pos++
	return b, nil
}

// Bool decodes a byte written by Appender.Bool. Anything but 0 or 1 is
// corruption: it would re-encode as a different byte.
func (c *Cursor) Bool() (bool, error) {
	b, err := c.Byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, c.corruptf("bool byte %#x", b)
	}
	return b == 1, nil
}

// Raw consumes exactly n bytes. Zero-copy: the result aliases the
// cursor's data and must not be retained past the decode.
func (c *Cursor) Raw(n int) ([]byte, error) {
	if err := c.poisoned(); err != nil {
		return nil, err
	}
	if n < 0 || n > c.Remaining() {
		return nil, c.truncatedf("%d-byte field overruns buffer", n)
	}
	out := c.data[c.pos : c.pos+n]
	c.pos += n
	return out, nil
}

// View decodes a uvarint-length-prefixed blob without copying. The
// result aliases the cursor's data: use it for fields parsed and
// discarded within the decode (nested logs, names converted to string);
// use Blob for anything the decoded value retains.
func (c *Cursor) View() ([]byte, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	// Compare as uint64: a huge length must not overflow int.
	if n > uint64(c.Remaining()) {
		return nil, c.truncatedf("length %d overruns buffer", n)
	}
	out := c.data[c.pos : c.pos+int(n)]
	c.pos += int(n)
	return out, nil
}

// Blob decodes a uvarint-length-prefixed blob into freshly owned bytes.
func (c *Cursor) Blob() ([]byte, error) {
	v, err := c.View()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// U32 decodes a little-endian 32-bit word.
func (c *Cursor) U32() (uint32, error) {
	if err := c.poisoned(); err != nil {
		return 0, err
	}
	if c.Remaining() < 4 {
		return 0, c.truncated("input ends mid-word")
	}
	v := binary.LittleEndian.Uint32(c.data[c.pos:])
	c.pos += 4
	return v, nil
}

// U64 decodes a little-endian 64-bit word.
func (c *Cursor) U64() (uint64, error) {
	if err := c.poisoned(); err != nil {
		return 0, err
	}
	if c.Remaining() < 8 {
		return 0, c.truncated("input ends mid-word")
	}
	v := binary.LittleEndian.Uint64(c.data[c.pos:])
	c.pos += 8
	return v, nil
}

// Done verifies every byte was consumed; trailing bytes are corruption
// (a decoder that stopped early would silently accept appended garbage).
// A cursor poisoned by an out-of-range Skip never reports success even
// though its position sits at the end.
func (c *Cursor) Done() error {
	if err := c.poisoned(); err != nil {
		return err
	}
	if c.pos != len(c.data) {
		return c.corruptf("%d trailing bytes", len(c.data)-c.pos)
	}
	return nil
}
