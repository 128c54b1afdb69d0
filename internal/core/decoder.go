package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/isa"
	"repro/internal/wire"
)

// BundleDecoder decodes bundles into reusable storage: the Bundle, the
// per-thread chunk logs (and their entry arrays), the input log's
// record slice and data arena, the signature-log slices, the interval
// checkpoints and the tail snapshot (memory images of an unchanged
// size, per-thread slices, chunk positions), the decompression buffer
// and the output buffer all persist across Decode calls. Steady-state
// decoding — the replay service draining a queue of recordings, or the
// codec benchmark — allocates nothing, checkpointed and
// signature-carrying bundles included.
//
// The returned bundle is valid until the next Decode and aliases both
// the decoder's storage and, for zero-copy fields (signature pairs,
// checkpoint output and the input-log data arena, viewed in the
// decompression buffer of an LZ-block v2 bundle and in the input bytes
// of any other), the input bytes themselves. Callers decoding out of
// an mmap must keep the mapping alive for as long as they use the
// bundle; callers that need an owning bundle use UnmarshalBundle,
// which copies.
type BundleDecoder struct {
	bundle Bundle
	logs   []chunk.Log
	input  capo.LogDecoder
	sigs   [][]capo.SigPair   // Bundle.SigLogs
	ckpts  []*capo.Checkpoint // Bundle.IntervalCheckpoints' storage
	tail   capo.Snapshot      // Bundle.Checkpoint
	body   []byte             // block decompression buffer
	copies bool               // one-shot ownership mode (UnmarshalBundle)
}

// Decode parses data in any supported format (the header version byte
// selects the layout) and returns the reused bundle.
func (d *BundleDecoder) Decode(data []byte) (*Bundle, error) {
	if len(data) < 5 || [4]byte(data[0:4]) != bundleMagic {
		return nil, fmt.Errorf("%w: bad magic", errBundleCorrupt)
	}
	switch data[4] {
	case bundleVersionV1:
		return d.decodeV1(data)
	case bundleVersionV2:
		return d.decodeV2(data)
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownBundleVersion, data[4])
	}
}

// reset clears the bundle for a fresh decode while keeping the
// capacity of every reused slice.
func (d *BundleDecoder) reset() *Bundle {
	b := &d.bundle
	b.StackWordsPerThread = 0
	b.MemChecksum = 0
	b.SigLogs = nil
	b.Checkpoint = nil
	b.IntervalCheckpoints = nil
	b.RecordStats = nil
	b.ChunkLogs = b.ChunkLogs[:0]
	b.RetiredPerThread = b.RetiredPerThread[:0]
	b.FinalContexts = b.FinalContexts[:0]
	return b
}

// setName sets ProgramName without allocating when it is unchanged
// from the previous decode (the steady-state case).
func (d *BundleDecoder) setName(name []byte) {
	if d.bundle.ProgramName != string(name) {
		d.bundle.ProgramName = string(name)
	}
}

// threadLogs returns the reused contiguous chunk.Log array sized for
// threads, preserving each log's entry capacity.
func (d *BundleDecoder) threadLogs(threads int) []chunk.Log {
	if cap(d.logs) >= threads {
		d.logs = d.logs[:threads]
	} else {
		d.logs = make([]chunk.Log, threads)
	}
	return d.logs
}

func readThreadCount(c *wire.Cursor) (int, error) {
	threads, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if threads == 0 || threads > 1<<16 {
		return 0, fmt.Errorf("%w: implausible thread count %d", ErrCorruptBundle, threads)
	}
	return int(threads), nil
}

// decodeV1 parses the legacy layout (header byte flags, interleaved
// input log, verbatim output blob).
func (d *BundleDecoder) decodeV1(data []byte) (*Bundle, error) {
	if len(data) < 6 {
		return nil, errBundleTruncated
	}
	if data[5] > bflagKnownV1 {
		return nil, fmt.Errorf("%w: unknown flags %#x", errBundleCorrupt, data[5])
	}
	b := d.reset()
	b.Format = FormatV1
	b.CountRepIterations = data[5]&bflagCountReps != 0
	b.Partial = data[5]&bflagPartial != 0
	hasSigs := data[5]&bflagSigs != 0
	hasIvals := data[5]&bflagIntervals != 0
	c := wire.CursorWith(data, errBundleTruncated, errBundleCorrupt)
	c.Skip(6)
	name, err := c.View()
	if err != nil {
		return nil, err
	}
	d.setName(name)
	if b.Threads, err = readThreadCount(&c); err != nil {
		return nil, err
	}
	if b.StackWordsPerThread, err = c.Uvarint(); err != nil {
		return nil, err
	}
	if b.MemChecksum, err = c.Uvarint(); err != nil {
		return nil, err
	}
	out, err := c.View()
	if err != nil {
		return nil, err
	}
	b.Output = append(b.Output[:0], out...)
	if err := d.readFinalState(&c, b); err != nil {
		return nil, err
	}
	logs := d.threadLogs(b.Threads)
	for t := 0; t < b.Threads; t++ {
		// View, not Blob: UnmarshalLogInto copies entries out and retains
		// nothing of the raw bytes.
		raw, err := c.View()
		if err != nil {
			return nil, err
		}
		if err := chunk.UnmarshalLogInto(&logs[t], raw); err != nil {
			return nil, fmt.Errorf("%w: chunk log %d: %w", ErrCorruptBundle, t, err)
		}
		b.ChunkLogs = append(b.ChunkLogs, &logs[t])
	}
	raw, err := c.View()
	if err != nil {
		return nil, err
	}
	if b.InputLog, err = d.input.DecodeLog(raw, !d.copies); err != nil {
		return nil, fmt.Errorf("%w: input log: %w", ErrCorruptBundle, err)
	}
	if hasSigs {
		if err := d.readSigLogs(&c, b); err != nil {
			return nil, err
		}
	}
	if err := d.readCheckpointSections(&c, b, hasIvals); err != nil {
		return nil, err
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeV2 parses the versioned layout: flag word, body block,
// columnar input log, op-encoded output.
func (d *BundleDecoder) decodeV2(data []byte) (*Bundle, error) {
	if len(data) < 9 {
		return nil, errBundleTruncated
	}
	flags := binary.LittleEndian.Uint32(data[5:9])
	if flags&^uint32(bflagKnownV2) != 0 {
		return nil, fmt.Errorf("%w: unknown feature flags %#x", errBundleCorrupt, flags)
	}
	c := wire.CursorWith(data, errBundleTruncated, errBundleCorrupt)
	c.Skip(9)
	body, method, err := wire.DecodeBlock(&c, d.body)
	if err != nil {
		return nil, err
	}
	if method == wire.BlockLZ {
		d.body = body[:0] // retain the grown buffer across decodes
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	if (flags&bflagCompressed != 0) != (method == wire.BlockLZ) {
		return nil, fmt.Errorf("%w: compression flag disagrees with block method %d", errBundleCorrupt, method)
	}
	b := d.reset()
	if method == wire.BlockLZ {
		b.Format = FormatV2LZ
	} else {
		b.Format = FormatV2Raw
	}
	b.CountRepIterations = flags&bflagCountReps != 0
	b.Partial = flags&bflagPartial != 0
	hasSigs := flags&bflagSigs != 0
	hasIvals := flags&bflagIntervals != 0

	bc := c.Sub(body)
	name, err := bc.View()
	if err != nil {
		return nil, err
	}
	d.setName(name)
	if b.Threads, err = readThreadCount(&bc); err != nil {
		return nil, err
	}
	if b.StackWordsPerThread, err = bc.Uvarint(); err != nil {
		return nil, err
	}
	if b.MemChecksum, err = bc.Uvarint(); err != nil {
		return nil, err
	}
	if err := d.readFinalState(&bc, b); err != nil {
		return nil, err
	}
	logs := d.threadLogs(b.Threads)
	for t := 0; t < b.Threads; t++ {
		raw, err := bc.View()
		if err != nil {
			return nil, err
		}
		if err := chunk.UnmarshalLogInto(&logs[t], raw); err != nil {
			return nil, fmt.Errorf("%w: chunk log %d: %w", ErrCorruptBundle, t, err)
		}
		b.ChunkLogs = append(b.ChunkLogs, &logs[t])
	}
	if b.InputLog, err = d.input.DecodeColumnar(&bc, !d.copies); err != nil {
		return nil, fmt.Errorf("%w: input log: %w", ErrCorruptBundle, err)
	}
	if hasSigs {
		if err := d.readSigLogs(&bc, b); err != nil {
			return nil, err
		}
	}
	if err := d.readCheckpointSections(&bc, b, hasIvals); err != nil {
		return nil, err
	}
	if b.Output, err = decodeOutputOps(&bc, b.InputLog.Records, b.Output); err != nil {
		return nil, err
	}
	if err := bc.Done(); err != nil {
		return nil, err
	}
	return b, nil
}

// readFinalState decodes the retired counts and final contexts shared
// by both layouts.
func (d *BundleDecoder) readFinalState(c *wire.Cursor, b *Bundle) error {
	for t := 0; t < b.Threads; t++ {
		v, err := c.Uvarint()
		if err != nil {
			return err
		}
		b.RetiredPerThread = append(b.RetiredPerThread, v)
	}
	if cap(b.FinalContexts) < b.Threads {
		b.FinalContexts = make([]isa.Context, 0, b.Threads)
	}
	for t := 0; t < b.Threads; t++ {
		ctx, err := capo.ReadContext(c)
		if err != nil {
			return err
		}
		b.FinalContexts = append(b.FinalContexts, ctx)
	}
	return nil
}

// resize returns s with n elements, reusing its array when it has room.
// The elements' values are left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// blob reads a length-prefixed field the bundle keeps: an owned copy in
// ownership mode, a view of the input otherwise, capped so an append
// cannot write past it. Empty is nil either way.
func (d *BundleDecoder) blob(c *wire.Cursor) ([]byte, error) {
	if d.copies {
		return c.Blob()
	}
	v, err := c.View()
	if len(v) == 0 {
		return nil, err
	}
	return v[:len(v):len(v)], nil
}

// readSigLogs decodes the per-thread signature-pair section shared by
// both layouts. A thread without pairs gets a nil log.
func (d *BundleDecoder) readSigLogs(c *wire.Cursor, b *Bundle) error {
	d.sigs = resize(d.sigs, b.Threads)
	b.SigLogs = d.sigs
	for t := 0; t < b.Threads; t++ {
		n, err := c.Uvarint()
		if err != nil {
			return err
		}
		// Sig logs are parallel to chunk logs by construction; a
		// count mismatch means corruption, and catching it here keeps
		// the screening phase's pairwise indexing in bounds.
		if int(n) != b.ChunkLogs[t].Len() {
			return fmt.Errorf("%w: thread %d has %d signature pairs for %d chunks",
				ErrCorruptBundle, t, n, b.ChunkLogs[t].Len())
		}
		pairs := d.sigs[t][:0]
		for i := uint64(0); i < n; i++ {
			var p capo.SigPair
			if p.Read, err = d.blob(c); err != nil {
				return err
			}
			if p.Write, err = d.blob(c); err != nil {
				return err
			}
			pairs = append(pairs, p)
		}
		if n == 0 {
			pairs = nil
		}
		d.sigs[t] = pairs
	}
	return nil
}

// readCheckpointSections decodes the optional checkpoint and
// interval-checkpoint sections shared by both layouts.
func (d *BundleDecoder) readCheckpointSections(c *wire.Cursor, b *Bundle, hasIvals bool) error {
	hasCkpt, err := c.Byte()
	if err != nil {
		return fmt.Errorf("%w: missing checkpoint flag", ErrCorruptBundle)
	}
	if hasCkpt == 1 {
		if err := d.readSnapshot(c, b.Threads, &d.tail); err != nil {
			return err
		}
		b.Checkpoint = &d.tail
	} else if hasCkpt != 0 {
		return fmt.Errorf("%w: bad checkpoint flag %d", ErrCorruptBundle, hasCkpt)
	}
	if !hasIvals {
		return nil
	}
	n, err := c.Uvarint()
	if err != nil {
		return err
	}
	// Each interval checkpoint embeds a memory image, so the count is
	// bounded by the remaining bytes; reject absurd values early.
	if n == 0 || n > uint64(c.Remaining()) {
		return fmt.Errorf("%w: implausible interval checkpoint count %d", ErrCorruptBundle, n)
	}
	for i := uint64(0); i < n; i++ {
		if i == uint64(len(d.ckpts)) {
			d.ckpts = append(d.ckpts, &capo.Checkpoint{})
		}
		ck := d.ckpts[i]
		if err := d.readSnapshot(c, b.Threads, &ck.Snapshot); err != nil {
			return err
		}
		ck.ChunkPos = ck.ChunkPos[:0]
		for t := 0; t < b.Threads; t++ {
			p, err := c.Uvarint()
			if err != nil {
				return err
			}
			if p > uint64(b.ChunkLogs[t].Len()) {
				return fmt.Errorf("%w: interval checkpoint %d chunk position %d beyond log (%d entries)",
					ErrCorruptBundle, i, p, b.ChunkLogs[t].Len())
			}
			ck.ChunkPos = append(ck.ChunkPos, int(p))
		}
		p, err := c.Uvarint()
		if err != nil {
			return err
		}
		if p > uint64(b.InputLog.Len()) {
			return fmt.Errorf("%w: interval checkpoint %d input position %d beyond log (%d records)",
				ErrCorruptBundle, i, p, b.InputLog.Len())
		}
		ck.InputPos = int(p)
		if ck.RetiredAt, err = c.Uvarint(); err != nil {
			return err
		}
	}
	b.IntervalCheckpoints = d.ckpts[:n:n]
	return nil
}

// UnmarshalBundle parses a serialized bundle of any supported format
// into a fully owning Bundle: nothing in the result aliases data.
func UnmarshalBundle(data []byte) (*Bundle, error) {
	d := &BundleDecoder{copies: true}
	return d.Decode(data)
}

// OpenBundleFile maps path (read-only mmap where the platform allows)
// and decodes the bundle out of the mapping with the given decoder —
// the zero-copy load path for replay tooling. The returned close
// function unmaps the file; the bundle must not be used after it runs.
func OpenBundleFile(d *BundleDecoder, path string) (*Bundle, func() error, error) {
	data, closer, err := wire.MapFile(path)
	if err != nil {
		return nil, nil, err
	}
	b, err := d.Decode(data)
	if err != nil {
		closer()
		return nil, nil, err
	}
	return b, closer, nil
}
