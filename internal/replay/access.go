package replay

import (
	"container/heap"
	"fmt"

	"repro/internal/arena"
	"repro/internal/capo"
	"repro/internal/isa"
)

// AccessKind classifies one traced memory access.
type AccessKind uint8

// Access kinds. Plain reads and writes are the data accesses a race can
// involve; atomics and futex operations are synchronization, excluded
// from race reports but feeding the happens-before order.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessAtomic
	AccessFutexWait
	AccessFutexWake
)

// String names the kind.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessAtomic:
		return "atomic"
	case AccessFutexWait:
		return "futex-wait"
	case AccessFutexWake:
		return "futex-wake"
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// IsSync reports whether the access is a synchronization operation
// rather than a plain data access.
func (k AccessKind) IsSync() bool { return k >= AccessAtomic }

// TraceEvent is one access of a compact trace. The issuing thread and
// chunk are the same for every access of a work item, so they live in
// the item's TraceItem header.
type TraceEvent struct {
	Addr uint64 // accessed word address (or the futex word)
	PC   int32  // issuing instruction (the trap site for futex events)
	Kind AccessKind
}

// TraceItem heads one work item's events in an AccessTrace: the item's
// thread, the absolute chunk-log index its accesses belong to (the chunk
// a syscall item's thread runs next), its Lamport timestamp, and how
// many of the trace's events it owns.
type TraceItem struct {
	TS     uint64
	Thread int32
	Chunk  int32
	Events int32
}

// AccessSink consumes an access trace one work item at a time, in the
// order the replay executes items: Item opens the next item that has at
// least one event, and Access delivers that item's events in issue
// order.
type AccessSink interface {
	Item(thread, chunk int, ts uint64)
	Access(ev TraceEvent)
}

// ChunkFilter selects the chunks whose plain accesses a trace keeps:
// thread t's absolute chunk c is kept when c < len(f[t]) and f[t][c].
// Synchronization events are always kept, and a nil filter keeps every
// access.
type ChunkFilter [][]bool

func (f ChunkFilter) keeps(t, c int) bool {
	return f == nil || (c < len(f[t]) && f[t][c])
}

// AccessTrace is a materialised trace: items in execution order, each
// owning the next Events of Events. It implements AccessSink.
type AccessTrace struct {
	Items  []TraceItem
	Events []TraceEvent
}

// Item implements AccessSink.
func (tr *AccessTrace) Item(thread, chunk int, ts uint64) {
	tr.Items = append(tr.Items, TraceItem{TS: ts, Thread: int32(thread), Chunk: int32(chunk)})
}

// Access implements AccessSink.
func (tr *AccessTrace) Access(ev TraceEvent) {
	tr.Events = append(arena.Grow(tr.Events, 1), ev)
	tr.Items[len(tr.Items)-1].Events++
}

// rawAccess is one port-level access buffered during a step.
type rawAccess struct {
	addr  uint64
	write bool
}

// tracingPort wraps the replay memory port, buffering each access of the
// in-flight instruction; the replayer drains and attributes the buffer
// after the step completes, when the issuing PC and kind are known.
type tracingPort struct {
	inner flatPort
	buf   *[]rawAccess
}

func (p tracingPort) Load(addr uint64) uint64 {
	*p.buf = append(*p.buf, rawAccess{addr, false})
	return p.inner.Load(addr)
}

func (p tracingPort) Store(addr uint64, val uint64) {
	*p.buf = append(*p.buf, rawAccess{addr, true})
	p.inner.Store(addr, val)
}

func (p tracingPort) RMW(addr uint64, op isa.RMWOp) uint64 {
	// Port-level RMW backs both atomic instructions and sub-word stores;
	// classification by opcode happens at drain time, so just note a
	// write here.
	*p.buf = append(*p.buf, rawAccess{addr, true})
	return p.inner.RMW(addr, op)
}

// openItem is the work item a traced replay is executing.
type openItem struct {
	thread, chunk int
	ts            uint64
	keepPlain     bool // the filter keeps this chunk's plain accesses
	emitted       bool // the sink has seen this item's header
}

// beginItem opens the next work item for tracing. Every access an item
// makes belongs to one chunk — chunksDone only advances once a chunk
// item completes — so the filter is consulted once per item.
func (r *replayer) beginItem(t *threadState, ts uint64) {
	chunk := r.chunkBase[t.id] + t.chunksDone
	r.item = openItem{thread: t.id, chunk: chunk, ts: ts, keepPlain: r.filter.keeps(t.id, chunk)}
}

// emit passes one access of the open item to the sink, opening the item
// there first.
func (r *replayer) emit(addr uint64, pc int, kind AccessKind) {
	if !r.item.emitted {
		r.item.emitted = true
		r.sink.Item(r.item.thread, r.item.chunk, r.item.ts)
	}
	r.sink.Access(TraceEvent{Addr: addr, PC: int32(pc), Kind: kind})
}

// drainAccesses attributes the in-flight step's buffered accesses to the
// issuing PC and classifies them: every access of an atomic instruction
// (isa.Op.IsAtomic) is synchronization, everything else is a plain read or
// write, dropped here unless the filter keeps the item's chunk.
func (r *replayer) drainAccesses(pcBefore int) {
	if len(r.accessBuf) == 0 {
		return
	}
	atomic := pcBefore >= 0 && pcBefore < len(r.in.Prog.Code) && r.in.Prog.Code[pcBefore].Op.IsAtomic()
	if atomic || r.item.keepPlain {
		for _, a := range r.accessBuf {
			kind := AccessRead
			switch {
			case atomic:
				kind = AccessAtomic
			case a.write:
				kind = AccessWrite
			}
			r.emit(a.addr, pcBefore, kind)
		}
	}
	r.accessBuf = r.accessBuf[:0]
}

// noteFutex logs a futex syscall as a synchronization event on its word.
func (r *replayer) noteFutex(t *threadState, sysno, addr uint64) {
	if r.sink == nil {
		return
	}
	kind := AccessFutexWait
	if sysno == capo.SysFutexWake {
		kind = AccessFutexWake
	}
	r.emit(addr, t.core.PC(), kind)
}

// MergeTraces feeds the traces of a partition's intervals, in interval
// order, to sink in serial replay order. Serial replay always runs the
// work item with the smallest (TS, thread); each thread's items are
// TS-ordered across the whole recording, and each interval's trace lists
// its items in (TS, thread) order, so merging the intervals' items by
// (TS, thread, interval index) reproduces the serial order exactly. Plain
// concatenation would not: a checkpoint terminates chunks without a
// clock barrier, so a thread's first item after a cut can carry a
// smaller TS than another thread's last item before it.
func MergeTraces(traces []*AccessTrace, sink AccessSink) {
	h := make(traceHeap, 0, len(traces))
	for i, tr := range traces {
		if len(tr.Items) > 0 {
			h = append(h, &traceCursor{tr: tr, interval: i})
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		c := h[0]
		it := c.tr.Items[c.item]
		sink.Item(int(it.Thread), int(it.Chunk), it.TS)
		end := c.event + int(it.Events)
		for _, ev := range c.tr.Events[c.event:end] {
			sink.Access(ev)
		}
		c.item, c.event = c.item+1, end
		if c.item == len(c.tr.Items) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
}

// traceCursor is one interval trace's read position in MergeTraces.
type traceCursor struct {
	tr          *AccessTrace
	item, event int
	interval    int
}

// traceHeap orders interval cursors by their next item's (TS, thread,
// interval index).
type traceHeap []*traceCursor

func (h traceHeap) Len() int      { return len(h) }
func (h traceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h traceHeap) Less(i, j int) bool {
	a, b := h[i].tr.Items[h[i].item], h[j].tr.Items[h[j].item]
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.Thread != b.Thread {
		return a.Thread < b.Thread
	}
	return h[i].interval < h[j].interval
}
func (h *traceHeap) Push(x any) { *h = append(*h, x.(*traceCursor)) }
func (h *traceHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}
