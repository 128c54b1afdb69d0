package fleet_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/allocpin"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/races"
	"repro/internal/replay"
	"repro/internal/workload"
)

// startServer stands up an ingest server with the job broker on a
// loopback port.
func startServer(t *testing.T) *ingest.Server {
	t.Helper()
	cfg := ingest.DefaultConfig()
	cfg.StoreDir = t.TempDir()
	cfg.JobTimeout = 5 * time.Second
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// recordRacy records the racy catalogue workload with checkpoints (for
// interval jobs) and signatures (for race jobs).
func recordRacy(t *testing.T) (*core.Bundle, *isa.Program) {
	t.Helper()
	spec, ok := workload.ByName("racy")
	if !ok {
		t.Fatal("racy workload missing from catalogue")
	}
	prog := spec.Build(3)
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 2
	cfg.Threads = 3
	cfg.TimeSliceInstrs = 5000
	cfg.CheckpointEveryInstrs = 500
	cfg.CaptureSignatures = true
	rec, err := core.Record(prog, cfg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return rec, prog
}

func sameReplay(t *testing.T, want, got *replay.Result) {
	t.Helper()
	if want.MemChecksum != got.MemChecksum {
		t.Errorf("mem checksum %#x != %#x", got.MemChecksum, want.MemChecksum)
	}
	if !bytes.Equal(want.Output, got.Output) {
		t.Errorf("outputs differ: %d vs %d bytes", len(got.Output), len(want.Output))
	}
	if want.Steps != got.Steps || want.ChunksExecuted != got.ChunksExecuted || want.InputsApplied != got.InputsApplied {
		t.Errorf("counters differ: %d/%d %d/%d %d/%d",
			got.Steps, want.Steps, got.ChunksExecuted, want.ChunksExecuted, got.InputsApplied, want.InputsApplied)
	}
	if !reflect.DeepEqual(want.FinalContexts, got.FinalContexts) {
		t.Errorf("final contexts differ")
	}
	if !reflect.DeepEqual(want.RetiredPerThread, got.RetiredPerThread) {
		t.Errorf("retired counts differ")
	}
	if !want.FinalMem.Equal(got.FinalMem) {
		t.Errorf("final memory images differ")
	}
}

// TestFleetWorkerFailure exercises both straggler-recovery paths. A
// black-hole worker swallows job frames and never answers: during the
// replay it stays attached, so its jobs come back on the board only
// when their deadline lapses (silent-stall re-dispatch); before the
// race phase its connection is severed with jobs still held, so those
// come back through workerGone. The surviving real worker finishes
// both runs, and the results are still bit-identical to local ones.
func TestFleetWorkerFailure(t *testing.T) {
	cfg := ingest.DefaultConfig()
	cfg.StoreDir = t.TempDir()
	cfg.JobTimeout = 300 * time.Millisecond
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	rec, prog := recordRacy(t)

	bh, err := ingest.DialWorker(srv.Addr(), 4)
	if err != nil {
		t.Fatalf("dial black-hole worker: %v", err)
	}
	swallowed := make(chan struct{}, 64)
	go func() {
		for {
			if _, _, err := bh.NextJob(); err != nil {
				return
			}
			swallowed <- struct{}{}
		}
	}()
	go (&fleet.Worker{Addr: srv.Addr(), Slots: 2}).Run()

	client, err := fleet.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	got, err := client.Replay(prog, rec)
	if err != nil {
		t.Fatalf("fleet replay with stalled worker: %v", err)
	}
	want, err := core.Replay(prog, rec)
	if err != nil {
		t.Fatalf("local replay: %v", err)
	}
	sameReplay(t, want, got)
	select {
	case <-swallowed:
		// The stall was real: the black hole held at least one job the
		// replay could only finish by deadline-driven re-dispatch.
	default:
		t.Errorf("black-hole worker was never fed a job — stall path not exercised")
	}

	// Now kill the stalled worker outright mid-session and run the race
	// detector: its held jobs requeue via workerGone, and the surviving
	// worker alone must still produce the local report.
	bh.Close()
	gotRep, err := client.Races(prog, rec)
	if err != nil {
		t.Fatalf("fleet races after worker death: %v", err)
	}
	wantRep, err := races.Detect(prog, rec)
	if err != nil {
		t.Fatalf("local races: %v", err)
	}
	if !reflect.DeepEqual(wantRep, gotRep) {
		t.Errorf("race reports differ after worker death:\nfleet: %+v\nlocal: %+v", gotRep, wantRep)
	}
}

// TestFleetMatchesLocal is the loopback end-to-end: two in-process
// workers attached to a broker, one submitter replaying and
// race-detecting through them, outputs bit-identical to local runs.
func TestFleetMatchesLocal(t *testing.T) {
	srv := startServer(t)
	for i := 0; i < 2; i++ {
		go (&fleet.Worker{Addr: srv.Addr(), Slots: 2}).Run()
	}
	rec, prog := recordRacy(t)

	client, err := fleet.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	got, err := client.Replay(prog, rec)
	if err != nil {
		t.Fatalf("fleet replay: %v", err)
	}
	want, err := core.Replay(prog, rec)
	if err != nil {
		t.Fatalf("local replay: %v", err)
	}
	sameReplay(t, want, got)
	if err := core.Verify(rec, got); err != nil {
		t.Fatalf("fleet replay fails verification: %v", err)
	}

	gotRep, err := client.Races(prog, rec)
	if err != nil {
		t.Fatalf("fleet races: %v", err)
	}
	wantRep, err := races.Detect(prog, rec)
	if err != nil {
		t.Fatalf("local races: %v", err)
	}
	if !reflect.DeepEqual(wantRep, gotRep) {
		t.Errorf("race reports differ:\nfleet: %+v\nlocal: %+v", gotRep, wantRep)
	}
	if len(wantRep.Races) == 0 {
		t.Errorf("racy workload confirmed no races — test is vacuous")
	}
}

// TestBoundaryMemoryMismatchSameEverywhere corrupts one word of an
// interior checkpoint image. Boundary validation compares images word
// for word, but the error must still name both checksums, and serial,
// local-parallel and fleet replay must report the identical boundary
// error (the fleet's as the rendered message of a remote failure).
func TestBoundaryMemoryMismatchSameEverywhere(t *testing.T) {
	srv := startServer(t)
	go (&fleet.Worker{Addr: srv.Addr(), Slots: 2}).Run()
	rec, prog := recordRacy(t)
	if len(rec.IntervalCheckpoints) < 2 {
		t.Fatalf("%d interval checkpoints, want an interior one", len(rec.IntervalCheckpoints))
	}
	img := rec.IntervalCheckpoints[0].Mem
	want := img.Checksum()
	addr := img.Size() - 8
	img.Store(addr, img.Load(addr)^0x5a5a)
	reason := fmt.Sprintf("memory checksum %#x does not match checkpoint %#x", want, img.Checksum())

	var msgs []string
	for _, workers := range []int{1, 2} {
		_, err := core.ReplayDistributed(prog, rec, dispatch.Local{Workers: workers}, "")
		var be *replay.BoundaryError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: got %v, want a boundary error", workers, err)
		}
		if be.Interval != 0 || be.Thread != -1 || be.Chunk != -1 || be.Reason != reason {
			t.Errorf("workers=%d: boundary error %+v, want interval 0, thread -1, chunk -1, reason %q",
				workers, be, reason)
		}
		msgs = append(msgs, be.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("serial error %q != local error %q", msgs[0], msgs[1])
	}

	client, err := fleet.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	_, err = client.Replay(prog, rec)
	var re *dispatch.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("fleet: got %v, want a remote boundary error", err)
	}
	if re.Msg != msgs[0] {
		t.Errorf("fleet error %q, want %q", re.Msg, msgs[0])
	}
}

// TestDistAllocs pins the allocations and allocated bytes of the fleet
// dispatch path end to end — upload, job framing, bundle fetch and
// result chunking — on a loopback broker with two in-process workers,
// the smallest fleet where distribution is real. The recording runs 4
// threads on 4 cores at seed 1. Workers rebuild the program from the
// catalogue name, so it records the catalogue workload as it is. The
// ceiling is 25% above the largest of five plain runs on go1.24.0.
func TestDistAllocs(t *testing.T) {
	srv := startServer(t)
	for i := 0; i < 2; i++ {
		go (&fleet.Worker{Addr: srv.Addr(), Slots: 2}).Run()
	}
	client, err := fleet.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	spec, ok := workload.ByName("counter")
	if !ok {
		t.Fatal("counter workload missing from catalogue")
	}
	prog := spec.Build(4)
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores, cfg.Threads = 4, 4
	cfg.Seed, cfg.KernelSeed = 1, 1001
	cfg.CheckpointEveryInstrs = 2000 // a dozen-plus intervals, one replay job each
	rec, err := core.Record(prog, cfg)
	if err != nil {
		t.Fatalf("record counter: %v", err)
	}
	t.Run("replay:dist", func(t *testing.T) {
		allocpin.Check(t, 1284, 3_706_000, func() {
			if _, err := client.Replay(prog, rec); err != nil {
				t.Fatal(err)
			}
			// The first upload's background verification ends inside
			// the warm-up run.
			srv.WaitIdle()
		})
	})
}
