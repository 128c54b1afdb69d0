package quickrec_test

import (
	"testing"

	quickrec "repro"
)

// Tests for the always-on extensions through the public API.

func TestTailThroughPublicAPI(t *testing.T) {
	prog, err := quickrec.BuildWorkload("lu", 4)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := quickrec.Record(prog, quickrec.Options{Seed: 8, CheckpointEveryInstrs: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.IntervalCheckpoints) == 0 {
		t.Fatal("no checkpoints taken")
	}
	tail, err := quickrec.Tail(rec)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := quickrec.Replay(prog, tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := quickrec.Verify(tail, rr); err != nil {
		t.Fatal(err)
	}
	// Tail bundles survive serialization too.
	loaded, err := quickrec.LoadRecording(tail.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	rr2, err := quickrec.Replay(prog, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := quickrec.Verify(loaded, rr2); err != nil {
		t.Fatal(err)
	}
}

func TestTailWithoutCheckpointsErrors(t *testing.T) {
	prog, _ := quickrec.BuildWorkload("counter", 2)
	rec, err := quickrec.Record(prog, quickrec.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quickrec.Tail(rec); err == nil {
		t.Error("Tail without checkpoints succeeded")
	}
}

func TestReplayUntilThroughPublicAPI(t *testing.T) {
	prog, _ := quickrec.BuildWorkload("radix", 4)
	rec, err := quickrec.Record(prog, quickrec.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := quickrec.ReplayUntil(prog, rec, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Hit || ps.Contexts[3].Retired != 1000 {
		t.Errorf("pause at %d (hit=%v), want 1000", ps.Contexts[3].Retired, ps.Hit)
	}
	// Wrong program rejected.
	other, _ := quickrec.BuildWorkload("counter", 4)
	if _, err := quickrec.ReplayUntil(other, rec, 3, 1000); err == nil {
		t.Error("breakpoint replay against wrong program succeeded")
	}
}
