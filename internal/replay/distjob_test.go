package replay

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/wire"
)

// FuzzIntervalJobs holds the interval job decoders — the job parameters
// a worker receives and the results a dispatcher absorbs, both bytes
// from outside the process — to typed errors, and what they accept to
// encode→decode round trips.
func FuzzIntervalJobs(f *testing.F) {
	const memBytes = 256
	final := &Result{
		Steps: 900, ChunksExecuted: 12, InputsApplied: 3, MemChecksum: 0xfeed,
		Output:           []byte("hello\n"),
		FinalContexts:    []isa.Context{{PC: 7, Retired: 450, Halted: true}, {PC: 9, Retired: 450, RepActive: true, RepDone: 2}},
		RetiredPerThread: []uint64{450, 450},
		Truncation:       &TruncatedReplay{Threads: []int{1}},
		FinalMem:         mem.New(memBytes),
	}
	final.FinalMem.Store(64, 42)
	const kinds = 3
	f.Add(byte(0), encodeIntervalJob(3, 10))
	f.Add(byte(1), encodeIntervalResult(&Result{Steps: 500, ChunksExecuted: 4}, false))
	f.Add(byte(2), encodeIntervalResult(final, true))
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
			i, n, err := decodeIntervalJob(data)
			if failed(err) {
				return
			}
			if i2, n2, err := decodeIntervalJob(encodeIntervalJob(i, n)); err != nil || i2 != i || n2 != n {
				t.Fatalf("interval job round trip: %d/%d, %v", i2, n2, err)
			}
		default:
			last := sel%kinds == 2
			r, err := decodeIntervalResult(data, last, memBytes)
			if failed(err) {
				return
			}
			got, err := decodeIntervalResult(encodeIntervalResult(r, last), last, memBytes)
			if err != nil || !reflect.DeepEqual(got, r) {
				t.Fatalf("interval result round trip: %+v, %v", got, err)
			}
		}
	})
}
