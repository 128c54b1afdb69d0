//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/allocpin"
	"repro/internal/wire"
)

// TestMarshalAllocsUnderBody pins what one steady-state Marshal of the
// codec fixture (BenchmarkBundleCodec's fft recording, 5.2 MB of raw
// body) allocates: less than 1.5 times its raw body. The body is built
// in a buffer of its own, sized once, and the block's LZ token scratch
// comes warm from the pool. A -race build drops pooled buffers at
// random, so the pin runs plain only. It runs on one P with the GC
// pacer off: sync.Pool keeps a buffer per P, and a goroutine that
// moved to another P, or a collection between two Marshals, would
// miss the warm buffer, so the pin would measure scheduling rather
// than Marshal.
func TestMarshalAllocsUnderBody(t *testing.T) {
	rec := codecRecording(t)
	var body wire.Appender
	rec.appendBodyV2(&body)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocpin.Check(t, 16, uint64(body.Len())*3/2, func() { codecSink = rec.Marshal() })
}
