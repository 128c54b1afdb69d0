package segment

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
)

// Sink is the stream interface the recorder writes through: the
// unbounded Writer and the retention-windowed WindowWriter both
// implement it. Write errors are sticky (Err); Close flushes whatever
// representation the sink buffers and must be called once after
// WriteFinal. The byte-accounting methods describe the rendered stream
// (for a WindowWriter they are populated by Close).
type Sink interface {
	WriteManifest(Manifest)
	WriteCommit(Commit)
	WriteChunkBatch(thread int, entries []chunk.Entry)
	WriteInputBatch(recs []capo.Record)
	WriteCheckpoint(cp *capo.Checkpoint)
	WriteFinal(f *FinalPayload)
	Err() error
	Segments() int
	TotalBytes() uint64
	FramingBytes() uint64
	Close() error
}

var (
	_ Sink = (*Writer)(nil)
	_ Sink = (*WindowWriter)(nil)
)

// windowBatch is one thread's chunk entries within a buffered epoch.
type windowBatch struct {
	thread  int
	entries []chunk.Entry
}

// windowEpoch is one buffered flush epoch: the commit plus the data
// batches it announced.
type windowEpoch struct {
	commit  Commit
	batches []windowBatch
	inputs  []capo.Record
}

// windowInterval is one checkpoint interval: the checkpoint that opens
// it (nil only for the genesis interval, which starts at program start)
// and the epochs flushed before the next checkpoint.
type windowInterval struct {
	anchor *capo.Checkpoint
	epochs []windowEpoch
}

// WindowWriter is the flight-recorder ring form of the segmented
// stream: it accepts the same write sequence as Writer but retains only
// the last K checkpoint intervals, garbage-collecting whole epochs
// older than the oldest retained checkpoint. The retained window is
// rendered as an ordinary segmented stream at Close (and on demand via
// Window): a manifest carrying the window parameters, then — once
// eviction has happened — the window-base checkpoint with its log
// positions rebased to zero, then the retained intervals with their
// epochs renumbered from zero and all checkpoint log positions rebased
// against the base. Timestamps, watermarks, contexts, memory images and
// fd-1 output stay absolute, so the rendered window replays (from the
// base checkpoint's state) exactly like the tail of the unbounded
// stream and salvages with the same horizon-cut machinery.
type WindowWriter struct {
	out io.Writer
	k   int
	err error

	man     Manifest
	haveMan bool

	// intervals[0] is the oldest retained interval; the last element is
	// always the open interval epochs are appended to.
	intervals []*windowInterval
	final     *FinalPayload

	evicted bool
	closed  bool

	segments     int
	totalBytes   uint64
	framingBytes uint64
}

// NewWindowWriter returns a windowed stream writer retaining the last k
// checkpoint intervals. The rendered window reaches out on Close; out
// may be nil when only Window snapshots are wanted.
func NewWindowWriter(out io.Writer, k int) *WindowWriter {
	w := &WindowWriter{out: out, k: k}
	if k < 1 {
		w.err = fmt.Errorf("segment: retention window must be at least 1 checkpoint interval (got %d)", k)
	}
	return w
}

// Err returns the first write or usage error, if any.
func (w *WindowWriter) Err() error { return w.err }

// Evicted reports whether any interval has been garbage-collected yet
// (equivalently: whether the rendered window opens with a base
// checkpoint instead of program start).
func (w *WindowWriter) Evicted() bool { return w.evicted }

// Segments returns the rendered window's segment count; populated by
// Close.
func (w *WindowWriter) Segments() int { return w.segments }

// TotalBytes returns the rendered window's size in bytes; populated by
// Close.
func (w *WindowWriter) TotalBytes() uint64 { return w.totalBytes }

// FramingBytes returns the rendered window's streaming overhead bytes;
// populated by Close.
func (w *WindowWriter) FramingBytes() uint64 { return w.framingBytes }

// open returns the interval new epochs belong to.
func (w *WindowWriter) open() *windowInterval { return w.intervals[len(w.intervals)-1] }

// usable gates every Write*: false once an error is pending or the sink
// was closed. Writing after Close is a usage error and becomes sticky,
// exactly like the unbounded Writer's guard.
func (w *WindowWriter) usable() bool {
	if w.err != nil {
		return false
	}
	if w.closed {
		w.err = fmt.Errorf("segment: windowed write after Close: %w", ErrClosed)
		return false
	}
	return true
}

// WriteManifest opens the stream. It must be the first call.
func (w *WindowWriter) WriteManifest(m Manifest) {
	if !w.usable() {
		return
	}
	if w.haveMan {
		w.err = fmt.Errorf("segment: duplicate manifest in windowed stream")
		return
	}
	if _, err := chunk.ByID(m.EncodingID); err != nil {
		w.err = err
		return
	}
	w.man = m
	w.haveMan = true
	w.intervals = append(w.intervals, &windowInterval{})
}

// WriteCommit opens a buffered flush epoch in the current interval.
func (w *WindowWriter) WriteCommit(c Commit) {
	if !w.usable() {
		return
	}
	if !w.haveMan {
		w.err = fmt.Errorf("segment: commit before manifest")
		return
	}
	n := w.man.Threads
	if len(c.Watermark) != n || len(c.Exited) != n || len(c.ChunkCount) != n || len(c.InputCount) != n {
		w.err = fmt.Errorf("segment: commit arrays do not match %d threads", n)
		return
	}
	cc := Commit{
		Epoch:      c.Epoch,
		Watermark:  append([]uint64(nil), c.Watermark...),
		Exited:     append([]bool(nil), c.Exited...),
		ChunkCount: append([]int(nil), c.ChunkCount...),
		InputCount: append([]int(nil), c.InputCount...),
	}
	iv := w.open()
	iv.epochs = append(iv.epochs, windowEpoch{commit: cc})
}

// WriteChunkBatch buffers thread's chunk entries into the open epoch.
// The entries are copied: callers may pass live log slices.
func (w *WindowWriter) WriteChunkBatch(thread int, entries []chunk.Entry) {
	if !w.usable() {
		return
	}
	if !w.haveMan {
		w.err = fmt.Errorf("segment: chunk batch before manifest")
		return
	}
	if thread < 0 || thread >= w.man.Threads {
		w.err = fmt.Errorf("segment: chunk batch for thread %d of %d", thread, w.man.Threads)
		return
	}
	iv := w.open()
	if len(iv.epochs) == 0 {
		w.err = fmt.Errorf("segment: chunk batch outside an epoch")
		return
	}
	e := &iv.epochs[len(iv.epochs)-1]
	e.batches = append(e.batches, windowBatch{thread: thread, entries: append([]chunk.Entry(nil), entries...)})
}

// WriteInputBatch buffers the open epoch's input records. The records
// are deep-copied — including each syscall record's Data bytes, which
// otherwise alias the recorder's live syscall-data arena — so buffered
// epochs stay stable however long they sit in the window.
func (w *WindowWriter) WriteInputBatch(recs []capo.Record) {
	if !w.usable() {
		return
	}
	if !w.haveMan {
		w.err = fmt.Errorf("segment: input batch before manifest")
		return
	}
	iv := w.open()
	if len(iv.epochs) == 0 {
		w.err = fmt.Errorf("segment: input batch outside an epoch")
		return
	}
	e := &iv.epochs[len(iv.epochs)-1]
	for _, r := range recs {
		e.inputs = append(e.inputs, r.Clone())
	}
}

// WriteCheckpoint closes the current interval and opens the next one,
// anchored at cp, then garbage-collects intervals that fell out of the
// retention window.
func (w *WindowWriter) WriteCheckpoint(cp *capo.Checkpoint) {
	if !w.usable() {
		return
	}
	if !w.haveMan {
		w.err = fmt.Errorf("segment: checkpoint before manifest")
		return
	}
	if len(cp.ChunkPos) != w.man.Threads {
		w.err = fmt.Errorf("segment: checkpoint has %d chunk positions for %d threads",
			len(cp.ChunkPos), w.man.Threads)
		return
	}
	// Deep-copied for the same reason as input batches: the anchor is
	// buffered until its interval leaves the window, and its memory image,
	// output and position slices must not track the caller's buffers.
	w.intervals = append(w.intervals, &windowInterval{anchor: cloneCheckpoint(cp)})
	w.evict()
}

// cloneCheckpoint returns a deep copy of cp.
func cloneCheckpoint(cp *capo.Checkpoint) *capo.Checkpoint {
	out := *cp
	out.Mem = cp.Mem.Snapshot()
	out.Output = append([]byte(nil), cp.Output...)
	out.Contexts = append([]isa.Context(nil), cp.Contexts...)
	out.Exited = append([]bool(nil), cp.Exited...)
	out.SigRegs = append([][isa.NumRegs]uint64(nil), cp.SigRegs...)
	out.SigPC = append([]int(nil), cp.SigPC...)
	out.ChunkPos = append([]int(nil), cp.ChunkPos...)
	return &out
}

// evict drops intervals older than the retention window. The open
// interval always survives; the genesis interval (program start to the
// first checkpoint) is dropped as soon as K checkpoint-anchored
// intervals exist, and after that the oldest anchored interval goes
// each time a new one opens.
func (w *WindowWriter) evict() {
	for len(w.intervals) > 1 {
		genesis := w.intervals[0].anchor == nil
		anchored := len(w.intervals)
		if genesis {
			anchored--
		}
		if (genesis && anchored >= w.k) || anchored > w.k {
			w.intervals[0] = nil // release the interval's buffers
			w.intervals = w.intervals[1:]
			w.evicted = true
			continue
		}
		break
	}
}

// WriteFinal records the reference final state; rendered as the
// window's last segment.
func (w *WindowWriter) WriteFinal(f *FinalPayload) {
	if !w.usable() {
		return
	}
	if !w.haveMan {
		w.err = fmt.Errorf("segment: final before manifest")
		return
	}
	w.final = f.Clone()
}

// rebase returns cp with its log positions made relative to the window
// base. Everything else (timestamps, contexts, memory, output) stays
// absolute.
func rebase(cp *capo.Checkpoint, baseChunk []int, baseInput int) *capo.Checkpoint {
	if baseChunk == nil {
		return cp
	}
	out := *cp
	out.ChunkPos = make([]int, len(cp.ChunkPos))
	for t, pos := range cp.ChunkPos {
		out.ChunkPos[t] = pos - baseChunk[t]
	}
	out.InputPos = cp.InputPos - baseInput
	return &out
}

// render writes the retained window as an ordinary segmented stream.
func (w *WindowWriter) render(buf *bytes.Buffer) (*Writer, error) {
	if !w.haveMan {
		return nil, fmt.Errorf("segment: window rendered before manifest")
	}
	wr := NewWriter(buf)
	man := w.man
	man.Window = uint64(w.k)
	man.BaseCheckpoint = w.intervals[0].anchor != nil
	wr.WriteManifest(man)

	var baseChunk []int
	baseInput := 0
	if man.BaseCheckpoint {
		base := w.intervals[0].anchor
		baseChunk = base.ChunkPos
		baseInput = base.InputPos
	}
	epoch := uint64(0)
	for _, iv := range w.intervals {
		if iv.anchor != nil {
			wr.WriteCheckpoint(rebase(iv.anchor, baseChunk, baseInput))
		}
		for _, e := range iv.epochs {
			c := e.commit
			c.Epoch = epoch
			epoch++
			wr.WriteCommit(c)
			for _, b := range e.batches {
				wr.WriteChunkBatch(b.thread, b.entries)
			}
			if len(e.inputs) > 0 {
				wr.WriteInputBatch(e.inputs)
			}
		}
	}
	if w.final != nil {
		wr.WriteFinal(w.final)
	}
	return wr, wr.Err()
}

// Window renders the currently retained window as a complete segmented
// stream (including the final segment if one was written). The
// retention oracle and crash sweeps snapshot the ring through this.
func (w *WindowWriter) Window() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	var buf bytes.Buffer
	if _, err := w.render(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Close renders the retained window and writes it to the underlying
// writer. Idempotent; later calls return the first error.
func (w *WindowWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	var buf bytes.Buffer
	wr, err := w.render(&buf)
	if err != nil {
		w.err = err
		return w.err
	}
	if w.out != nil {
		if _, err := w.out.Write(buf.Bytes()); err != nil {
			w.err = fmt.Errorf("segment: window write: %w", err)
			return w.err
		}
	}
	w.segments = wr.Segments()
	w.totalBytes = wr.TotalBytes()
	w.framingBytes = wr.FramingBytes()
	return nil
}
