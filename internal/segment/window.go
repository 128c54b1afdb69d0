package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/wire"
)

// interval is one checkpoint interval kept by a windowed Writer: the
// payload of the checkpoint that opens it (nil only for the genesis
// interval, which starts at program start) and the payloads of the
// segments written after it, back to back in data.
type interval struct {
	anchor []byte
	data   []byte
	segs   []keptSegment
}

// keptSegment locates one kept payload: it ends at data[end].
type keptSegment struct {
	kind Kind
	end  int
}

// NewWindowWriter returns the flight-recorder form of the Writer: it
// accepts the same write sequence but keeps only the last k checkpoint
// intervals, dropping whole epochs older than the oldest retained
// checkpoint. The retained window reaches out as an ordinary segmented
// stream at Close (and on demand via Window): a manifest carrying the
// window parameters, then — once eviction has happened — the
// window-base checkpoint with its log positions rebased to zero, then
// the retained intervals with their epochs renumbered from zero and
// every checkpoint's log positions rebased against the base.
// Timestamps, watermarks, contexts, memory images and fd-1 output stay
// absolute, so the window replays (from the base checkpoint's state)
// exactly like the tail of the unbounded stream and salvages with the
// same horizon-cut machinery. out may be nil when only Window snapshots
// are wanted.
func NewWindowWriter(out io.Writer, k int) *Writer {
	if out == nil {
		out = io.Discard
	}
	w := &Writer{w: out, k: k}
	if k < 1 {
		w.err = fmt.Errorf("segment: retention window must be at least 1 checkpoint interval (got %d)", k)
	}
	return w
}

// Evicted reports whether a windowed Writer has dropped any interval yet
// (equivalently: whether its window opens with a base checkpoint instead
// of program start). It is always false for the unbounded form.
func (w *Writer) Evicted() bool { return w.evicted }

// keep retains one encoded payload. A checkpoint opens a new interval
// and pushes intervals out of the window: the genesis interval goes as
// soon as k checkpoint-anchored intervals exist, and after that the
// oldest anchored interval goes each time a new one opens.
func (w *Writer) keep(kind Kind, payload []byte) {
	if kind == KindCheckpoint {
		w.intervals = append(w.intervals, interval{anchor: bytes.Clone(payload)})
		for len(w.intervals) > w.k {
			w.intervals[0] = interval{} // release the interval's buffers
			w.intervals = w.intervals[1:]
			w.evicted = true
		}
		return
	}
	iv := &w.intervals[len(w.intervals)-1]
	iv.data = append(iv.data, payload...)
	iv.segs = append(iv.segs, keptSegment{kind: kind, end: len(iv.data)})
}

// render frames the retained window into dst's own buffer, sized up
// front for all of it. The kept payloads go out as they are, except
// commits, whose epochs are renumbered from zero, and — once history was
// evicted — checkpoints, whose log positions are rebased to the window
// base (the first retained checkpoint). Both only shrink, so the size
// bound holds.
func (w *Writer) render(dst *Writer) error {
	if w.enc == nil {
		return fmt.Errorf("segment: window rendered before manifest")
	}
	man := w.man
	man.Window = uint64(w.k)
	man.BaseCheckpoint = w.evicted
	size := headerSize + trailerSize + maxManifestSize + len(man.ProgramName)
	for _, iv := range w.intervals {
		size += len(iv.anchor) + len(iv.data) + (len(iv.segs)+1)*(headerSize+trailerSize)
	}
	dst.buf.Reset()
	dst.buf.Grow(size)
	dst.frame(&dst.buf, KindManifest, func(a *wire.Appender) { appendManifest(a, man) })

	var baseChunk []int
	baseInput := 0
	epoch := uint64(0)
	for _, iv := range w.intervals {
		switch {
		case iv.anchor == nil: // the genesis interval
		case !w.evicted:
			dst.frame(&dst.buf, KindCheckpoint, func(a *wire.Appender) { a.Raw(iv.anchor) })
		default:
			cp, err := decodeCheckpoint(iv.anchor, w.threads)
			if err != nil {
				return fmt.Errorf("segment: window render: %w", err)
			}
			if baseChunk == nil {
				baseChunk, baseInput = slices.Clone(cp.ChunkPos), cp.InputPos
			}
			for t := range cp.ChunkPos {
				cp.ChunkPos[t] -= baseChunk[t]
			}
			cp.InputPos -= baseInput
			dst.frame(&dst.buf, KindCheckpoint, func(a *wire.Appender) { appendCheckpoint(a, cp) })
		}
		start := 0
		for _, s := range iv.segs {
			payload := iv.data[start:s.end]
			start = s.end
			if s.kind != KindCommit {
				dst.frame(&dst.buf, s.kind, func(a *wire.Appender) { a.Raw(payload) })
				continue
			}
			_, n := binary.Uvarint(payload) // the epoch as written
			dst.frame(&dst.buf, KindCommit, func(a *wire.Appender) {
				a.Uvarint(epoch)
				a.Raw(payload[n:])
			})
			epoch++
		}
	}
	return nil
}

// Window renders the currently retained window as a complete segmented
// stream (including the final segment if one was written) without
// closing the writer. An unbounded Writer has no window to render.
func (w *Writer) Window() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.k == 0 {
		return nil, fmt.Errorf("segment: Window on an unbounded stream")
	}
	var dst Writer
	if err := w.render(&dst); err != nil {
		return nil, err
	}
	return dst.buf.Buf, dst.err
}
