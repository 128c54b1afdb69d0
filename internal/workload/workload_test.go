package workload_test

import (
	"sort"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// runNative executes prog natively and returns the machine for memory
// inspection.
func runNative(t *testing.T, prog *isa.Program, threads int, seed uint64) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Threads = threads
	cfg.Seed = seed
	m := machine.New(prog, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	return m
}

func TestFFTMatchesReference(t *testing.T) {
	const n, phases, threads = 512, 3, 4
	prog := workload.FFT(n, phases, threads)
	m := runNative(t, prog, threads, 7)
	want := workload.FFTReference(n, phases, threads)
	base := prog.Symbol("a")
	for i := uint64(0); i < n; i++ {
		if got := m.Memory().Load(base + i*8); got != want[i] {
			t.Fatalf("a[%d] = %#x, want %#x", i, got, want[i])
		}
	}
}

func TestFFTReferenceScheduleIndependent(t *testing.T) {
	const n, phases, threads = 256, 2, 4
	want := workload.FFTReference(n, phases, threads)
	for _, seed := range []uint64{1, 2, 3} {
		prog := workload.FFT(n, phases, threads)
		m := runNative(t, prog, threads, seed)
		base := prog.Symbol("a")
		for i := uint64(0); i < n; i++ {
			if got := m.Memory().Load(base + i*8); got != want[i] {
				t.Fatalf("seed %d: a[%d] = %#x, want %#x", seed, i, got, want[i])
			}
		}
	}
}

func TestLUMatchesReference(t *testing.T) {
	const blocks, bw, threads = 12, 32, 4
	prog := workload.LU(blocks, bw, threads)
	m := runNative(t, prog, threads, 9)
	want := workload.LUReference(blocks, bw, threads)
	base := prog.Symbol("a")
	for i := range want {
		if got := m.Memory().Load(base + uint64(i)*8); got != want[i] {
			t.Fatalf("a[%d] = %#x, want %#x", i, got, want[i])
		}
	}
}

func TestOceanMatchesReference(t *testing.T) {
	const rows, cols, iters, threads = 16, 32, 5, 4
	prog := workload.Ocean(rows, cols, iters, threads)
	m := runNative(t, prog, threads, 11)
	g1, g2 := workload.OceanReference(rows, cols, iters)
	b1, b2 := prog.Symbol("g1"), prog.Symbol("g2")
	for i := range g1 {
		if got := m.Memory().Load(b1 + uint64(i)*8); got != g1[i] {
			t.Fatalf("g1[%d] = %d, want %d", i, got, g1[i])
		}
		if got := m.Memory().Load(b2 + uint64(i)*8); got != g2[i] {
			t.Fatalf("g2[%d] = %d, want %d", i, got, g2[i])
		}
	}
}

func TestRadixSortsExactly(t *testing.T) {
	const n, threads = 1024, 4
	want := workload.RadixReference(n)
	for _, seed := range []uint64{13, 14} {
		prog := workload.Radix(n, threads)
		m := runNative(t, prog, threads, seed)
		base := prog.Symbol("src")
		for i := uint64(0); i < n; i++ {
			if got := m.Memory().Load(base + i*8); got != want[i] {
				t.Fatalf("seed %d: src[%d] = %d, want %d (rank-based sort broken)", seed, i, got, want[i])
			}
		}
	}
}

func TestRadixInitValuesAreBytes(t *testing.T) {
	for i, v := range workload.RadixInitValues(512) {
		if v > 0xFF {
			t.Fatalf("key %d = %#x exceeds byte range", i, v)
		}
	}
	if sort.SliceIsSorted(workload.RadixInitValues(512), func(i, j int) bool { return i < j }) {
		t.Log("init values trivially ordered?") // informational only
	}
}

func TestBarnesSumInvariant(t *testing.T) {
	const nodes, steps, threads = 32, 200, 4
	prog := workload.Barnes(nodes, steps, threads)
	m := runNative(t, prog, threads, 17)
	base := prog.Symbol("tree")
	var sum uint64
	for i := uint64(0); i < nodes; i++ {
		sum += m.Memory().Load(base + i*64 + 8)
		if lock := m.Memory().Load(base + i*64); lock != 0 {
			t.Errorf("node %d lock still held: %d", i, lock)
		}
	}
	if want := workload.BarnesExpectedSum(steps, threads); sum != want {
		t.Errorf("tree sum = %d, want %d (lost updates under per-node locks)", sum, want)
	}
}

func TestRaytraceMatchesReference(t *testing.T) {
	const tasks, scene, samples, threads = 128, 512, 32, 4
	prog := workload.Raytrace(tasks, scene, samples, threads)
	m := runNative(t, prog, threads, 19)
	want := workload.RaytraceReference(tasks, scene, samples)
	base := prog.Symbol("fb")
	for i := range want {
		if got := m.Memory().Load(base + uint64(i)*8); got != want[i] {
			t.Fatalf("fb[%d] = %#x, want %#x", i, got, want[i])
		}
	}
}

func TestRaytraceLoadBalances(t *testing.T) {
	// With work stealing, different seeds may distribute tasks
	// differently but the framebuffer must not change.
	const tasks, scene, samples, threads = 64, 256, 16, 4
	want := workload.RaytraceReference(tasks, scene, samples)
	for _, seed := range []uint64{3, 4} {
		prog := workload.Raytrace(tasks, scene, samples, threads)
		m := runNative(t, prog, threads, seed)
		base := prog.Symbol("fb")
		for i := range want {
			if got := m.Memory().Load(base + uint64(i)*8); got != want[i] {
				t.Fatalf("seed %d: fb[%d] differs", seed, i)
			}
		}
	}
}

func TestWaterGlobalAccumulator(t *testing.T) {
	const molWords, steps, threads = 256, 4, 4
	prog := workload.Water(molWords, steps, threads)
	m := runNative(t, prog, threads, 23)
	want := workload.WaterExpectedGlobal(molWords, steps, threads)
	if got := m.Memory().Load(prog.Symbol("global")); got != want {
		t.Errorf("global = %d, want %d", got, want)
	}
}

func TestVolrendMatchesReference(t *testing.T) {
	const rays, voxels, steps, threads = 128, 512, 24, 4
	prog := workload.Volrend(rays, voxels, steps, threads)
	m := runNative(t, prog, threads, 29)
	want := workload.VolrendReference(rays, voxels, steps)
	base := prog.Symbol("out")
	for i := range want {
		if got := m.Memory().Load(base + uint64(i)*8); got != want[i] {
			t.Fatalf("out[%d] = %#x, want %#x", i, got, want[i])
		}
	}
}

func TestSuiteSpecsRunAtAllThreadCounts(t *testing.T) {
	for _, spec := range workload.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, threads := range []int{1, 2, 4} {
				prog := spec.Build(threads)
				cfg := machine.DefaultConfig()
				cfg.Threads = threads
				cfg.Seed = uint64(41 + threads)
				if _, err := machine.New(prog, cfg).Run(); err != nil {
					t.Fatalf("threads=%d: %v", threads, err)
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, ok := workload.ByName("fft"); !ok {
		t.Error("fft missing from suite")
	}
	if _, ok := workload.ByName("nope"); ok {
		t.Error("unknown workload found")
	}
	if len(workload.Suite()) < 12 {
		t.Errorf("suite has only %d workloads", len(workload.Suite()))
	}
}

// TestProgramByName pins the one resolver every name goes through: a
// catalogue name, or "fuzz-<seed>" — the name a random program's
// recordings carry, and the only spelling of one.
func TestProgramByName(t *testing.T) {
	for _, name := range []string{"no-such-workload", "fuzz-not-a-number", "fuzz:42"} {
		if _, err := workload.ProgramByName(name, 2); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	for _, name := range []string{"counter", "fuzz-42"} {
		if p, err := workload.ProgramByName(name, 2); err != nil || p == nil || p.Name != name {
			t.Errorf("%s: got (%v, %v)", name, p, err)
		}
	}
}

func TestSuiteDescriptionsComplete(t *testing.T) {
	for _, s := range workload.Suite() {
		if s.Name == "" || s.Description == "" || s.Build == nil || (s.Kind != "splash" && s.Kind != "micro" && s.Kind != "app") {
			t.Errorf("incomplete spec: %+v", s)
		}
	}
}

func TestEmitterRegisterValidation(t *testing.T) {
	b := isa.NewBuilder("bad")
	defer func() {
		if recover() == nil {
			t.Error("scratch-register collision not detected")
		}
	}()
	workload.EmitBarrier(b, "x", isa.R21)
}

func TestFFTSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-divisible FFT size accepted")
		}
	}()
	workload.FFT(100, 1, 3)
}
