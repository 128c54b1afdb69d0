// Package allocpin holds a pipeline stage to fixed ceilings on heap
// allocations and allocated bytes per run, for the pins that each
// stage's owning package keeps in its tests. Unlike throughput,
// allocation counts do not depend on the host's speed, so a ceiling can
// sit close above today's value.
package allocpin

import (
	"math"
	"runtime"
	"testing"
)

// Check runs stage once to warm it up, then three more times, and fails
// t when the fewest allocations or allocated bytes of one run exceed
// maxAllocs or maxBytes. The minimum discounts what goroutines left
// running by earlier tests allocate meanwhile; pins do not call
// t.Parallel for the same reason.
func Check(t testing.TB, maxAllocs, maxBytes uint64, stage func()) {
	t.Helper()
	stage()
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		stage()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d allocs/run (ceiling %d), %d B/run (ceiling %d)", allocs, maxAllocs, bytes, maxBytes)
	if allocs > maxAllocs {
		t.Errorf("%d allocs/run, want <= %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%d B/run, want <= %d", bytes, maxBytes)
	}
}
