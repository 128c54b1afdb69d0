package replay

// Remote interval jobs: the wire form of one checkpoint-partitioned
// replay interval. The job payload carries only (index, total) — a
// fleet worker holding the same bundle re-derives the interval list
// with partitionCuts, which is a pure function of the Input, so both
// sides agree on what interval k means without shipping log slices.
// The result payload carries the per-interval counters, plus the full
// final state for the last interval only: stitch reads final-state
// fields from the last interval alone, so interior intervals stay a
// few bytes on the wire no matter how large the memory image is.

import (
	"fmt"

	"repro/internal/capo"
	"repro/internal/mem"
	"repro/internal/wire"
)

// encodeIntervalJob packs one interval job's parameters.
func encodeIntervalJob(index, total int) []byte {
	var a wire.Appender
	a.Uvarint(uint64(index))
	a.Uvarint(uint64(total))
	return a.Buf
}

// decodeIntervalJob unpacks an interval job's parameters.
func decodeIntervalJob(data []byte) (index, total int, err error) {
	c := wire.CursorOf(data)
	i, err := c.Uvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("replay: interval job index: %w", err)
	}
	n, err := c.Uvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("replay: interval job total: %w", err)
	}
	if err := c.Done(); err != nil {
		return 0, 0, fmt.Errorf("replay: interval job trailer: %w", err)
	}
	if n == 0 || n > 1<<20 || i >= n {
		return 0, 0, fmt.Errorf("replay: interval job: %w", c.Corruptf("interval %d of %d out of range", i, n))
	}
	return int(i), int(n), nil
}

// encodeIntervalResult packs one interval's replay result. final marks
// the recording's last interval, whose full end state (memory image,
// contexts, output) the stitcher needs; interior intervals were already
// validated against their boundary checkpoint on the worker, so only
// their counters travel.
func encodeIntervalResult(r *Result, final bool) []byte {
	var a wire.Appender
	a.Uvarint(r.Steps)
	a.Uvarint(r.ChunksExecuted)
	a.Uvarint(r.InputsApplied)
	a.Bool(final)
	if !final {
		return a.Buf
	}
	a.U64(r.MemChecksum)
	a.Blob(r.Output)
	a.Uvarint(uint64(len(r.FinalContexts)))
	for _, ctx := range r.FinalContexts {
		capo.AppendContext(&a, ctx)
	}
	a.Uvarint(uint64(len(r.RetiredPerThread)))
	for _, n := range r.RetiredPerThread {
		a.Uvarint(n)
	}
	if r.Truncation != nil {
		a.Bool(true)
		a.Uvarint(uint64(len(r.Truncation.Threads)))
		for _, t := range r.Truncation.Threads {
			a.Int(t)
		}
	} else {
		a.Bool(false)
	}
	if r.FinalMem != nil {
		a.Bool(true)
		size := r.FinalMem.Size()
		a.Uvarint(size)
		img := wire.GetAppender()
		img.Buf = r.FinalMem.AppendBytes(img.Buf, 0, size)
		wire.AppendBlock(&a, img.Buf)
		wire.PutAppender(img)
	} else {
		a.Bool(false)
	}
	return a.Buf
}

// decodeIntervalResult unpacks one interval's replay result, validating
// that the payload's final flag matches what the dispatching side
// expects for this interval index, and that a final memory image has
// the size memBytes of the memory the interval replays against — checked
// before the image is expanded, so a lying size cannot make the decoder
// build a gigabyte.
func decodeIntervalResult(data []byte, final bool, memBytes uint64) (*Result, error) {
	r := &Result{}
	c := wire.CursorOf(data)
	fail := func(what string, err error) (*Result, error) {
		return nil, fmt.Errorf("replay: interval result %s: %w", what, err)
	}
	var err error
	if r.Steps, err = c.Uvarint(); err != nil {
		return fail("steps", err)
	}
	if r.ChunksExecuted, err = c.Uvarint(); err != nil {
		return fail("chunks", err)
	}
	if r.InputsApplied, err = c.Uvarint(); err != nil {
		return fail("inputs", err)
	}
	flag, err := c.Byte()
	if err != nil {
		return fail("final flag", err)
	}
	if flag > 1 || (flag != 0) != final {
		return fail("final flag", c.Corruptf("flag %d, dispatcher expected %v", flag, final))
	}
	if !final {
		if err := c.Done(); err != nil {
			return fail("trailer", err)
		}
		return r, nil
	}
	if r.MemChecksum, err = c.U64(); err != nil {
		return fail("mem checksum", err)
	}
	out, err := c.Blob()
	if err != nil {
		return fail("output", err)
	}
	r.Output = out
	nctx, err := c.Uvarint()
	if err != nil || nctx > 1<<16 {
		return fail("context count", errOr(err, nctx))
	}
	for i := 0; i < int(nctx); i++ {
		ctx, err := capo.ReadContext(&c)
		if err != nil {
			return fail("context", err)
		}
		r.FinalContexts = append(r.FinalContexts, ctx)
	}
	nret, err := c.Uvarint()
	if err != nil || nret > 1<<16 {
		return fail("retired count", errOr(err, nret))
	}
	for i := 0; i < int(nret); i++ {
		n, err := c.Uvarint()
		if err != nil {
			return fail("retired", err)
		}
		r.RetiredPerThread = append(r.RetiredPerThread, n)
	}
	hasTrunc, err := c.Byte()
	if err != nil {
		return fail("truncation flag", err)
	}
	if hasTrunc != 0 {
		nt, err := c.Uvarint()
		if err != nil || nt > 1<<16 {
			return fail("truncation count", errOr(err, nt))
		}
		tr := &TruncatedReplay{}
		for i := 0; i < int(nt); i++ {
			v, err := c.Uvarint()
			if err != nil || v >= 1<<16 {
				return fail("truncated thread", errOr(err, v))
			}
			tr.Threads = append(tr.Threads, int(v))
		}
		r.Truncation = tr
	}
	hasMem, err := c.Byte()
	if err != nil {
		return fail("memory flag", err)
	}
	if hasMem != 0 {
		size, err := c.Uvarint()
		if err != nil {
			return fail("memory size", err)
		}
		if size != memBytes {
			return fail("memory size", c.Corruptf("%d bytes, replay memory is %d", size, memBytes))
		}
		img, _, err := wire.DecodeBlockMax(&c, nil, size)
		if err != nil {
			return fail("memory image", err)
		}
		if uint64(len(img)) != size {
			return fail("memory image", c.Corruptf("%d bytes, replay memory is %d", len(img), size))
		}
		m := mem.New(size)
		m.StoreBytes(0, img)
		r.FinalMem = m
	}
	if err := c.Done(); err != nil {
		return fail("trailer", err)
	}
	return r, nil
}

// errOr turns a count-overflow (nil err but absurd value) into a
// corruption error.
func errOr(err error, v uint64) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("%w: value %d out of range", wire.ErrCorrupt, v)
}

// IntervalRunner caches one Input's interval partition for repeated
// interval jobs: a fleet worker serves many jobs against the same
// bundle, and re-deriving the partition per job would cost O(intervals)
// of slicing for every job. The cached list is identical to what the
// dispatching side computed (partitionCuts is a pure function of the
// Input), so both sides agree on what interval k means. Safe for
// concurrent Exec and TraceInterval calls: the intervals are read-only
// and each replay snapshots its start state.
type IntervalRunner struct {
	in  Input
	ivs []*interval
}

// NewIntervalRunner validates the input and partitions it once for
// repeated interval jobs, the way a remote executor partitions it: at
// every usable checkpoint. A recording that no checkpoint cuts is a
// single interval.
func NewIntervalRunner(in Input) (*IntervalRunner, error) {
	return newIntervalRunner(in, partitionCuts)
}

// Partition is NewIntervalRunner under Run's rule: the input is cut only
// when in.Exec is set or in.Workers asks for parallel replay, and is
// otherwise a single interval that replays exactly as Run does.
func Partition(in Input) (*IntervalRunner, error) {
	return newIntervalRunner(in, partition)
}

func newIntervalRunner(in Input, cut func(Input) []*interval) (*IntervalRunner, error) {
	if err := validate(&in); err != nil {
		return nil, err
	}
	ivs := cut(in)
	if len(ivs) == 0 {
		ivs = []*interval{wholeInterval(in)}
	}
	in.Exec = nil
	return &IntervalRunner{in: in, ivs: ivs}, nil
}

// Intervals returns the number of intervals in the partition.
func (ir *IntervalRunner) Intervals() int { return len(ir.ivs) }

// MemWords bounds the word addresses a trace of the partition can carry:
// each interval replays against its start checkpoint's memory image, or
// the program's initial layout, and faults on any access beyond it.
func (ir *IntervalRunner) MemWords() uint64 {
	var size uint64
	for _, iv := range ir.ivs {
		size = max(size, ir.in.memBytes(iv))
	}
	return size / mem.WordSize
}

// TraceInterval replays interval i of the partition with access tracing:
// sink receives every synchronization event and the plain accesses of
// the chunks filter keeps, headed by their work items in the order the
// interval executes them. Interval i's item headers name absolute chunk
// indices, so the filter and the trace index the whole recording's
// chunk logs.
func (ir *IntervalRunner) TraceInterval(i int, filter ChunkFilter, sink AccessSink) (*Result, error) {
	return runInterval(ir.in, ir.ivs[i], filter, sink)
}

// Exec is the worker side of a JobReplayInterval: decode the job
// parameters, replay the one interval the payload names, and encode its
// result. The total in the payload cross-checks that both sides see the
// same recording.
func (ir *IntervalRunner) Exec(payload []byte) ([]byte, error) {
	index, total, err := decodeIntervalJob(payload)
	if err != nil {
		return nil, err
	}
	if len(ir.ivs) != total {
		return nil, fmt.Errorf("replay: job expects %d intervals, bundle partitions into %d (bundle mismatch?)",
			total, len(ir.ivs))
	}
	r, err := runInterval(ir.in, ir.ivs[index], nil, nil)
	if err != nil {
		return nil, err
	}
	return encodeIntervalResult(r, index == total-1), nil
}
