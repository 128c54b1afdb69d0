package experiments

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/workload"
)

// a11WorkerCounts is the fleet-size sweep. Workers are in-process, so on
// a small host the upper counts measure dispatch overhead rather than
// genuine parallelism — the same caveat as A8.
var a11WorkerCounts = []int{1, 2, 4}

// A11 measures the remote-fleet executor: a recording is uploaded once
// per fleet size, then replayed and race-detected through a loopback
// ingest server with N attached workers (race detection ships only its
// traced interval replays; screening and confirmation stay local). Every distributed run must be
// bit-identical to the serial local one (that is the dispatch layer's
// contract, enforced per cell by the conformance harness); the only
// thing allowed to vary with N is wall time. The "xlocal" columns give
// the distributed run's cost relative to the serial local one — the
// price of shipping jobs over the wire. As in A8, genuine speedup is
// bounded by the host's real core count: in-process workers on a
// single-CPU host time-slice one core, so there the sweep measures how
// dispatch overhead behaves as the fleet grows, not parallelism.
//
// Fleet workers re-derive programs by catalogue name, so this
// experiment records catalogue workloads exactly as ByName builds them
// and deliberately ignores cfg.Scale — a scaled build sharing a
// catalogue name would be rebuilt differently on the worker and
// rejected as a replay divergence.
func A11(cfg Config, w io.Writer) error {
	threads := cfg.maxThreads()
	t := report.Table{
		Title: fmt.Sprintf("Fleet replay/race-detection cost vs worker count (%d threads, 1 slot/worker)", threads),
		Columns: []string{"benchmark", "workers", "intervals", "replay ms", "xlocal",
			"races ms", "xlocal", "verified"},
	}
	for _, name := range []string{"fft", "water", "racy"} {
		spec, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("A11: workload %q missing from catalogue", name)
		}
		prog := spec.Build(threads)
		rec, err := recordBundle(spec, threads, cfg.Seed, func(c *machine.Config) {
			c.CheckpointEveryInstrs = 2000
			c.CaptureSignatures = true
		})
		if err != nil {
			return err
		}
		serialStart := time.Now()
		serial, err := core.ReplayWorkers(prog, rec, 1)
		serialMS := time.Since(serialStart).Seconds() * 1e3
		if err != nil {
			return err
		}
		detectStart := time.Now()
		localRep, err := races.Detect(prog, rec)
		detectMS := time.Since(detectStart).Seconds() * 1e3
		if err != nil {
			return err
		}
		for _, workers := range a11WorkerCounts {
			replayMS, racesMS, verdict, err := a11Fleet(prog, rec, serial, localRep, workers)
			if err != nil {
				return fmt.Errorf("%s with %d workers: %w", name, workers, err)
			}
			t.AddRow(name, report.U(uint64(workers)),
				report.U(uint64(len(rec.IntervalCheckpoints)+1)),
				report.F(replayMS, 2), report.F(replayMS/serialMS, 2),
				report.F(racesMS, 2), report.F(racesMS/detectMS, 2), verdict)
		}
	}
	if _, err := fmt.Fprint(w, t.String()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "jobs reference content-addressed bundles; workers re-derive programs by name, so results are bit-identical at every fleet size")
	return err
}

// a11Fleet stands up a loopback fleet of the given size, runs one
// distributed replay and one distributed race detection, and checks
// both against the serial references.
func a11Fleet(prog *isa.Program, rec *core.Bundle, serial *replay.Result,
	localRep *races.Report, workers int) (replayMS, racesMS float64, verdict string, err error) {
	dir, err := os.MkdirTemp("", "quickrec-a11-")
	if err != nil {
		return 0, 0, "", err
	}
	defer os.RemoveAll(dir)
	scfg := ingest.DefaultConfig()
	scfg.StoreDir = dir
	scfg.Verifiers = 1
	srv, err := ingest.NewServer(scfg)
	if err != nil {
		return 0, 0, "", err
	}
	go srv.Serve()
	defer srv.Close()
	for i := 0; i < workers; i++ {
		go (&fleet.Worker{Addr: srv.Addr(), Slots: 1}).Run()
	}
	client, err := fleet.Dial(srv.Addr())
	if err != nil {
		return 0, 0, "", err
	}
	defer client.Close()

	start := time.Now()
	dist, err := client.Replay(prog, rec)
	replayMS = time.Since(start).Seconds() * 1e3
	if err != nil {
		return 0, 0, "", fmt.Errorf("distributed replay: %w", err)
	}
	start = time.Now()
	distRep, err := client.Races(prog, rec)
	racesMS = time.Since(start).Seconds() * 1e3
	if err != nil {
		return 0, 0, "", fmt.Errorf("distributed races: %w", err)
	}
	verdict = "OK (identical)"
	switch {
	case core.Verify(rec, dist) != nil:
		verdict = "VERIFY FAIL"
	case dist.MemChecksum != serial.MemChecksum || dist.Steps != serial.Steps:
		verdict = "REPLAY DIVERGED"
	case !reflect.DeepEqual(distRep, localRep):
		verdict = "RACES DIVERGED"
	}
	return replayMS, racesMS, verdict, nil
}
