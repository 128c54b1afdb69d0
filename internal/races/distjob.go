package races

// Remote race-detection jobs: the wire form of one traced replay interval
// (JobTraceInterval). Its payload carries only the interval coordinates
// plus a cross-check count — a fleet worker holding the same bundle
// re-derives the candidate set and the interval partition
// deterministically, so the two sides agree on what interval i means
// without shipping the analysis state. Every decoder bounds what it
// allocates by the bytes it was given and reports malformed input as an
// error wrapping wire.ErrCorrupt or wire.ErrTruncated.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/wire"
)

// encodeTraceJob packs one traced interval's parameters: the interval
// coordinates and the dispatcher's candidate count, which the worker
// checks against its own screening.
func encodeTraceJob(interval, intervals, ncands int) []byte {
	var a wire.Appender
	a.Uvarint(uint64(interval))
	a.Uvarint(uint64(intervals))
	a.Uvarint(uint64(ncands))
	return a.Buf
}

func decodeTraceJob(data []byte) (interval, intervals, ncands int, err error) {
	c := wire.CursorOf(data)
	var v [3]uint64
	for i, what := range []string{"interval", "interval count", "candidate count"} {
		if v[i], err = c.Uvarint(); err != nil {
			return 0, 0, 0, fmt.Errorf("races: trace job %s: %w", what, err)
		}
	}
	if err := c.Done(); err != nil {
		return 0, 0, 0, fmt.Errorf("races: trace job trailer: %w", err)
	}
	if v[1] == 0 || v[1] > 1<<20 || v[0] >= v[1] || v[2] > 1<<32 {
		return 0, 0, 0, fmt.Errorf("races: trace job: %w",
			c.Corruptf("interval %d of %d (%d candidates) out of range", v[0], v[1], v[2]))
	}
	return int(v[0]), int(v[1]), int(v[2]), nil
}

// encodeTrace packs one interval's filtered access trace: the item and
// event counts, each item's header, then every event as its PC and kind
// packed into one uvarint, followed by its address — the word index of a
// plain access, the exact byte address of a synchronization event, since
// a futex syscall may name an unaligned word or one past the memory.
func encodeTrace(tr *replay.AccessTrace) []byte {
	var a wire.Appender
	a.Grow(2*binary.MaxVarintLen64 + len(tr.Items)*8 + len(tr.Events)*5)
	a.Int(len(tr.Items))
	a.Int(len(tr.Events))
	for _, it := range tr.Items {
		a.Int(int(it.Thread))
		a.Int(int(it.Chunk))
		a.Uvarint(it.TS)
		a.Int(int(it.Events))
	}
	for _, ev := range tr.Events {
		a.Uvarint(uint64(uint32(ev.PC))<<3 | uint64(ev.Kind))
		if ev.Kind.IsSync() {
			a.Uvarint(ev.Addr)
		} else {
			a.Uvarint(ev.Addr / 8)
		}
	}
	return a.Buf
}

// Smallest encodings of a trace item header (four uvarints) and of an
// event (two).
const (
	traceItemBytes  = 4
	traceEventBytes = 2
)

// decodeTrace unpacks one interval's access trace, validating everything
// the happens-before builder indexes by: threads and chunks must lie in
// chunks (a chunk may equal its log's length — the syscall items after a
// thread's last chunk), plain accesses' words must lie below memWords,
// every item must own at least one event, and the item counts must add
// up. A synchronization event may name any address.
func decodeTrace(data []byte, chunks replay.ChunkFilter, memWords uint64) (*replay.AccessTrace, error) {
	c := wire.CursorOf(data)
	fail := func(what string, err error) (*replay.AccessTrace, error) {
		return nil, fmt.Errorf("races: trace %s: %w", what, err)
	}
	nitems, err := c.Uvarint()
	if err != nil {
		return fail("item count", err)
	}
	nevents, err := c.Uvarint()
	if err != nil {
		return fail("event count", err)
	}
	rem := uint64(c.Remaining())
	if nitems > rem/traceItemBytes || nevents > rem/traceEventBytes || nitems > nevents {
		return fail("counts", c.Corruptf("%d items, %d events in %d bytes", nitems, nevents, rem))
	}
	tr := &replay.AccessTrace{
		Items:  make([]replay.TraceItem, nitems),
		Events: make([]replay.TraceEvent, nevents),
	}
	owned := uint64(0)
	for i := range tr.Items {
		var v [4]uint64
		for f := range v {
			if v[f], err = c.Uvarint(); err != nil {
				return fail("item", err)
			}
		}
		thread, chunk, ts, n := v[0], v[1], v[2], v[3]
		if thread >= uint64(len(chunks)) || chunk > uint64(len(chunks[thread])) || n == 0 || n > nevents-owned {
			return fail("item", c.Corruptf("item %d: thread %d chunk %d with %d events out of range", i, thread, chunk, n))
		}
		owned += n
		tr.Items[i] = replay.TraceItem{TS: ts, Thread: int32(thread), Chunk: int32(chunk), Events: int32(n)}
	}
	if owned != nevents {
		return fail("items", c.Corruptf("items own %d of %d events", owned, nevents))
	}
	for i := range tr.Events {
		pk, err := c.Uvarint()
		if err != nil {
			return fail("event", err)
		}
		addr, err := c.Uvarint()
		if err != nil {
			return fail("event", err)
		}
		kind, pc := replay.AccessKind(pk&7), pk>>3
		if !kind.IsSync() {
			if addr >= memWords {
				return fail("event", c.Corruptf("event %d: word %d of %d", i, addr, memWords))
			}
			addr *= 8
		}
		if kind > replay.AccessFutexWake || pc >= 1<<31 {
			return fail("event", c.Corruptf("event %d: pc %d, kind %d out of range", i, pc, kind))
		}
		tr.Events[i] = replay.TraceEvent{Addr: addr, PC: int32(pc), Kind: kind}
	}
	if err := c.Done(); err != nil {
		return fail("trailer", err)
	}
	return tr, nil
}

// TraceJobs is the worker side of JobTraceInterval for one bundle: it
// screens the bundle on the first job — once per bundle, not per job —
// and traces the interval each job names through the worker's cached
// partition, filtered to the candidate chunks. Safe for concurrent Exec
// calls.
type TraceJobs struct {
	b    *core.Bundle
	ir   *replay.IntervalRunner
	once sync.Once
	cs   *candidateSet
	err  error
}

// NewTraceJobs serves trace jobs for b over ir, the partition the
// worker's interval jobs use.
func NewTraceJobs(b *core.Bundle, ir *replay.IntervalRunner) *TraceJobs {
	return &TraceJobs{b: b, ir: ir}
}

// Exec traces the interval a JobTraceInterval payload names and encodes
// its trace. The payload's interval and candidate counts cross-check
// that both sides see the same recording and the same screening.
func (tj *TraceJobs) Exec(payload []byte) ([]byte, error) {
	interval, intervals, ncands, err := decodeTraceJob(payload)
	if err != nil {
		return nil, err
	}
	tj.once.Do(func() {
		cands, _, err := screen(tj.b, 1)
		if err != nil {
			tj.err = err
			return
		}
		tj.cs = newCandidateSet(tj.b, cands)
	})
	if tj.err != nil {
		return nil, tj.err
	}
	if tj.cs.n != ncands {
		return nil, fmt.Errorf("races: job expects %d candidates, bundle screens to %d (bundle mismatch?)",
			ncands, tj.cs.n)
	}
	if n := tj.ir.Intervals(); n != intervals {
		return nil, fmt.Errorf("races: job expects %d intervals, bundle partitions into %d (bundle mismatch?)",
			intervals, n)
	}
	var tr replay.AccessTrace
	if _, err := tj.ir.TraceInterval(interval, tj.cs.chunks, &tr); err != nil {
		return nil, err
	}
	return encodeTrace(&tr), nil
}
