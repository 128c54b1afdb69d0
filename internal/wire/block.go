package wire

import "encoding/binary"

// Block framing: the one choke point through which every codec gets
// optional compression. A block is
//
//	method u8 | rawLen uvarint | blob(payload)
//
// where method selects how payload reconstructs the rawLen original
// bytes: BlockRaw stores them verbatim (payload length must equal
// rawLen, and decode returns a zero-copy view), BlockLZ stores the
// deterministic LZ token stream from lz.go. The rawLen field is
// redundant for raw blocks but keeps the header shape uniform, so a
// reader can size a destination buffer before touching the payload.
//
// AppendBlock picks whichever method is smaller; AppendBlockMethod
// forces one, which is what re-encode-is-identity needs — a decoded
// container remembers the method its source used and reproduces it
// even when the other would now win.

// Block methods. Anything else is corruption.
const (
	BlockRaw byte = 0 // payload is the original bytes
	BlockLZ  byte = 1 // payload is an LZ token stream (lz.go)
)

// AppendBlock frames data as a block, compressing when the LZ token
// stream is strictly smaller and falling back to raw framing otherwise.
// The choice is deterministic in data. Returns the method used.
func AppendBlock(a *Appender, data []byte) byte {
	s := GetAppender()
	s.Buf = lzAppend(s.Buf, data)
	method, payload := BlockRaw, data
	if s.Len() < len(data) {
		method, payload = BlockLZ, s.Buf
	}
	appendBlockFrame(a, data, payload, method)
	PutAppender(s)
	return method
}

// AppendBlockMethod frames data using the given method regardless of
// which is smaller.
func AppendBlockMethod(a *Appender, data []byte, method byte) {
	switch method {
	case BlockRaw:
		appendBlockFrame(a, data, data, BlockRaw)
	case BlockLZ:
		s := GetAppender()
		s.Buf = lzAppend(s.Buf, data)
		appendBlockFrame(a, data, s.Buf, BlockLZ)
		PutAppender(s)
	default:
		panic("wire: unknown block method")
	}
}

// appendBlockFrame grows a once to hold the frame, so a container that
// starts with its header alone ends up sized to the framed block.
func appendBlockFrame(a *Appender, orig, payload []byte, method byte) {
	a.Grow(1 + 2*binary.MaxVarintLen64 + len(payload))
	a.Byte(method)
	a.Uvarint(uint64(len(orig)))
	a.Blob(payload)
}

// DecodeBlock reads one block from c. Raw payloads come back as a
// zero-copy view of the cursor's data; compressed payloads decompress
// into dst's capacity (dst may be nil — a caller that passes the same
// buffer across decodes pays no steady-state allocation). Errors wrap
// the cursor's flavored sentinels.
func DecodeBlock(c *Cursor, dst []byte) (data []byte, method byte, err error) {
	return DecodeBlockMax(c, dst, maxBlockRaw)
}

// DecodeBlockMax is DecodeBlock for a caller that knows how large the
// block may be: a block declaring more than limit raw bytes is refused
// as corrupt before its payload is expanded.
func DecodeBlockMax(c *Cursor, dst []byte, limit uint64) (data []byte, method byte, err error) {
	method, err = c.Byte()
	if err != nil {
		return nil, 0, err
	}
	rawLen, err := c.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	// An absurd declared size is a corrupt header, not a license to
	// build gigabytes of output. The decompressor grows its buffer as
	// tokens actually produce bytes (so a lying rawLen with a short
	// token stream fails long before the declared size), but a valid
	// token stream can legitimately expand enormously — this cap is
	// the only bound on that work.
	if limit = min(limit, maxBlockRaw); rawLen > limit {
		return nil, 0, c.corruptf("block declares %d bytes (limit %d)", rawLen, limit)
	}
	payload, err := c.View()
	if err != nil {
		return nil, 0, err
	}
	switch method {
	case BlockRaw:
		if uint64(len(payload)) != rawLen {
			return nil, 0, c.corruptf("raw block: payload %d bytes, declares %d", len(payload), rawLen)
		}
		return payload, BlockRaw, nil
	case BlockLZ:
		sub := c.Sub(payload)
		out, err := lzExpand(dst[:0], &sub, int(rawLen))
		if err != nil {
			return nil, 0, err
		}
		return out, BlockLZ, nil
	default:
		return nil, 0, c.corruptf("unknown block method %d", method)
	}
}

// maxBlockRaw caps the original size a block may declare, matching the
// order of the largest container in the system (a whole bundle body).
const maxBlockRaw = 1 << 30
