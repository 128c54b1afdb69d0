package core

import (
	"bytes"
	"testing"

	"repro/internal/allocpin"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestRecordReplayAllocsPerKinstr pins the steady state of the record
// and replay hot loops: growing a run by ~80k instructions may add
// allocations only for the logs themselves, never per instruction,
// chunk or syscall.
func TestRecordReplayAllocsPerKinstr(t *testing.T) {
	measure := func(requests int64) (allocs float64, instrs uint64) {
		prog := workload.KVServer(requests, 64, 4)
		cfg := recordCfg(1, nil)
		cfg.Threads = 4
		allocs = testing.AllocsPerRun(1, func() {
			b, err := Record(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Replay(prog, b)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(b, rr); err != nil {
				t.Fatal(err)
			}
			instrs = 0
			for _, n := range rr.RetiredPerThread {
				instrs += n
			}
		})
		return allocs, instrs
	}
	smallAllocs, smallInstrs := measure(50)
	bigAllocs, bigInstrs := measure(800)
	perKinstr := (bigAllocs - smallAllocs) / (float64(bigInstrs-smallInstrs) / 1000)
	t.Logf("%v allocs for %d instrs, %v allocs for %d instrs: %.2f allocs per extra kinstr",
		smallAllocs, smallInstrs, bigAllocs, bigInstrs, perKinstr)
	if perKinstr > 1 {
		t.Errorf("%.2f allocations per extra kinstr, want <= 1", perKinstr)
	}
}

// TestStageAllocs pins the allocations and allocated bytes of the
// record, replay and stream stages: 4 threads on 4 cores, seed 1. Each
// ceiling is 25% above the largest of five plain runs on go1.24.0;
// stream's is 25% above the largest of five plain and three -race runs,
// since CI runs the pins both ways. stream's byte count is exact.
func TestStageAllocs(t *testing.T) {
	cfg := recordCfg(1, func(c *machine.Config) { c.Cores, c.Threads = 4, 4 })
	record := func(name string) func(t *testing.T) func() {
		return func(t *testing.T) func() {
			spec, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("no workload %q", name)
			}
			prog := spec.Build(4)
			return func() {
				if _, err := Record(prog, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cases := []struct {
		stage               string
		maxAllocs, maxBytes uint64
		setup               func(t *testing.T) func()
	}{
		{"counter", 224, 502_060, record("counter")},
		{"ioheavy", 250, 1_850_210, record("ioheavy")},
		{"repcopy", 197, 522_940, record("repcopy")},
		// A dozen checkpoint intervals replayed on a 4-worker pool.
		{"replay:par", 589, 6_050_100, func(t *testing.T) func() {
			prog := workload.Counter(50000, 4)
			rcfg := cfg
			rcfg.CheckpointEveryInstrs = 50000
			b, err := Record(prog, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := ReplayWorkers(prog, b, 4); err != nil {
					t.Fatal(err)
				}
			}
		}},
		// reqserver streamed unbounded, checkpointed every 5,000
		// instructions: 7 checkpoints. reqserver reads the clock, whose
		// values are logged, so the stream size also pins the modelled
		// cycles before each read.
		{"stream", 541, 4_760_140, func(t *testing.T) func() {
			prog := workload.ReqServer(96, 4, 16, 4)
			scfg := cfg
			scfg.CheckpointEveryInstrs = 5000
			return func() {
				var buf bytes.Buffer
				if _, err := StreamRecord(prog, scfg, &buf); err != nil {
					t.Fatal(err)
				}
				if buf.Len() != 313775 {
					t.Errorf("stream is %d bytes, want 313775", buf.Len())
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.stage, func(t *testing.T) {
			allocpin.Check(t, c.maxAllocs, c.maxBytes, c.setup(t))
		})
	}
}
