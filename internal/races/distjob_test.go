package races

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/replay"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testDigest stands in for a bundle's content address in job envelopes.
const testDigest = "0123456789abcdef"

// jobExec is an in-process stand-in for a fleet: every task travels in
// its wire form — Job, a dispatch envelope, the worker-side exec for its
// kind, Absorb — the way fleet.Client runs it, minus the network. It
// keeps each trace job's interval and result.
type jobExec struct {
	ir     *replay.IntervalRunner
	tracer *TraceJobs
	traced []int          // the interval of each trace job, in shipping order
	traces map[int][]byte // each interval's trace job result
}

func newJobExec(t testing.TB, prog *isa.Program, b *core.Bundle) *jobExec {
	t.Helper()
	in, err := core.ReplayInput(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := replay.NewIntervalRunner(in)
	if err != nil {
		t.Fatal(err)
	}
	return &jobExec{ir: ir, tracer: NewTraceJobs(b, ir), traces: map[int][]byte{}}
}

func (e *jobExec) Name() string { return "in-process jobs" }

func (e *jobExec) Execute(s dispatch.Spec) error {
	for i := 0; i < s.Tasks; i++ {
		job, err := s.Job(i)
		if err != nil {
			return err
		}
		var env wire.Appender
		dispatch.AppendJob(&env, job)
		if job, err = dispatch.DecodeJob(env.Buf); err != nil {
			return err
		}
		if job.Kind != dispatch.JobTraceInterval {
			return fmt.Errorf("unroutable job kind %d", job.Kind)
		}
		out, err := e.tracer.Exec(job.Payload)
		e.traced = append(e.traced, i)
		e.traces[i] = out
		if err != nil {
			return err
		}
		if err := s.Absorb(i, out); err != nil {
			return err
		}
	}
	return nil
}

// intervalTraces decodes the trace job results, in interval order.
func (e *jobExec) intervalTraces(t testing.TB) []*replay.AccessTrace {
	t.Helper()
	traces := make([]*replay.AccessTrace, e.ir.Intervals())
	for i := range traces {
		tr, err := decodeTrace(e.traces[i], e.tracer.cs.chunks, e.ir.MemWords())
		if err != nil {
			t.Fatalf("interval %d trace: %v", i, err)
		}
		traces[i] = tr
	}
	return traces
}

// reordered reports whether merging interval traces into serial order
// moves any item from where concatenating them in interval order puts
// it.
func reordered(traces []*replay.AccessTrace) bool {
	var merged replay.AccessTrace
	replay.MergeTraces(traces, &merged)
	i := 0
	for _, tr := range traces {
		for _, it := range tr.Items {
			if merged.Items[i] != it {
				return true
			}
			i++
		}
	}
	return false
}

// TestRemoteDetectTracesEachIntervalOnce pins the fleet's trace work per
// detect: exactly one trace job per checkpoint interval, whose replayed
// steps add up to one serial replay of the recording.
func TestRemoteDetectTracesEachIntervalOnce(t *testing.T) {
	for _, every := range []uint64{0, 500} {
		prog := workload.Racy(150, 4)
		b := recordEvery(t, prog, 2, 4, 3, every)
		e := newJobExec(t, prog, b)
		got, err := DetectExec(prog, b, e, testDigest)
		if err != nil {
			t.Fatalf("every=%d: remote detect: %v", every, err)
		}
		want, err := Detect(prog, b)
		if err != nil {
			t.Fatalf("every=%d: local detect: %v", every, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("every=%d: remote report differs from local", every)
		}
		n := e.ir.Intervals()
		if every > 0 && n < 2 {
			t.Fatalf("every=%d: recording partitions into %d interval(s)", every, n)
		}
		shipped := slices.Clone(e.traced)
		slices.Sort(shipped)
		for i, iv := range shipped {
			if iv != i || len(shipped) != n {
				t.Fatalf("every=%d: trace jobs named intervals %v, want each of %d once", every, e.traced, n)
			}
		}
		var steps uint64
		for _, iv := range e.traced {
			res, err := e.ir.TraceInterval(iv, e.tracer.cs.chunks, &replay.AccessTrace{})
			if err != nil {
				t.Fatal(err)
			}
			steps += res.Steps
		}
		serial, err := core.Replay(prog, b)
		if err != nil {
			t.Fatal(err)
		}
		if steps != serial.Steps {
			t.Errorf("every=%d: trace jobs replayed %d steps, a serial replay %d", every, steps, serial.Steps)
		}
	}
}

// TestDecodeBoundsAllocation holds the trace result decoder to
// allocations bounded by the bytes it was given: a few bytes declaring
// 2^30 items and events must fail as corrupt before anything is
// preallocated.
func TestDecodeBoundsAllocation(t *testing.T) {
	bomb := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<30), 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeTrace(bomb, replay.ChunkFilter{{true}}, 1<<20)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("decoding a count bomb returned %v, want a corruption error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("decoding a count bomb allocated %d bytes", n)
	}
}

// FuzzRaceJobs holds the race job decoders — trace jobs and trace
// results, both bytes from outside the process — to typed errors, and
// what they accept to encode→decode round trips.
func FuzzRaceJobs(f *testing.F) {
	chunks := replay.ChunkFilter{make([]bool, 4), make([]bool, 4), make([]bool, 8), make([]bool, 8)}
	const memWords = 512
	const kinds = 2
	f.Add(byte(0), encodeTraceJob(3, 8, 120))
	f.Add(byte(1), encodeTrace(&replay.AccessTrace{
		Items: []replay.TraceItem{{TS: 9, Thread: 1, Chunk: 3, Events: 2}, {TS: 12, Thread: 3, Chunk: 8, Events: 3}},
		Events: []replay.TraceEvent{
			{Addr: 0x40, PC: 7, Kind: replay.AccessRead}, {Addr: 0x48, PC: 8, Kind: replay.AccessWrite},
			{Addr: 0x80, PC: 30, Kind: replay.AccessFutexWake},
			{Addr: 0x43, PC: 31, Kind: replay.AccessFutexWake},    // unaligned futex word
			{Addr: 1 << 40, PC: 32, Kind: replay.AccessFutexWake}, // past the memory
		},
	}))
	f.Add(byte(1), binary.AppendUvarint(binary.AppendUvarint(nil, 1<<30), 1<<30)) // a count bomb
	f.Add(byte(0), encodeTraceJob(1<<20-1, 1<<20, 1<<32))                         // every bound at its limit
	f.Add(byte(0), encodeTraceJob(8, 8, 0))                                       // one interval past the last
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		failed := func(err error) bool {
			if err == nil {
				return false
			}
			if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("malformed payload gave an untyped error: %v", err)
			}
			return true
		}
		switch sel % kinds {
		case 0:
			iv, n, nc, err := decodeTraceJob(data)
			if failed(err) {
				return
			}
			if iv2, n2, nc2, err := decodeTraceJob(encodeTraceJob(iv, n, nc)); err != nil || iv2 != iv || n2 != n || nc2 != nc {
				t.Fatalf("trace job round trip: %d/%d/%d, %v", iv2, n2, nc2, err)
			}
		case 1:
			tr, err := decodeTrace(data, chunks, memWords)
			if failed(err) {
				return
			}
			if got, err := decodeTrace(encodeTrace(tr), chunks, memWords); err != nil || !reflect.DeepEqual(got, tr) {
				t.Fatalf("trace round trip: %+v, %v", got, err)
			}
		}
	})
}
