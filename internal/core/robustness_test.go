package core

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// TestUnmarshalNeverPanics feeds the bundle parser every truncation of a
// valid bundle plus thousands of single-byte corruptions; it must return
// an error or a bundle, never panic, and never allocate unboundedly.
func TestUnmarshalNeverPanics(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Threads = 2
	cfg.CheckpointEveryInstrs = 10_000 // include the checkpoint section
	b, err := Record(workload.Counter(500, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := b
	if len(b.IntervalCheckpoints) != 0 {
		if tail, err := Tail(b); err == nil {
			src = tail // checkpoint-bearing bundle covers more parser code
		}
	}
	good := src.Marshal()

	tryParse := func(data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parser panicked on %d bytes: %v", len(data), r)
			}
		}()
		_, _ = UnmarshalBundle(data)
	}

	// Every truncation.
	step := 1
	if len(good) > 4096 {
		step = len(good) / 4096
	}
	for cut := 0; cut < len(good); cut += step {
		tryParse(good[:cut])
	}
	// Random single-byte corruptions.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4000; i++ {
		mut := append([]byte(nil), good...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		tryParse(mut)
	}
	// Random multi-byte corruptions with truncation.
	for i := 0; i < 1000; i++ {
		mut := append([]byte(nil), good[:rng.Intn(len(good))]...)
		for j := 0; j < 8 && len(mut) > 0; j++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		tryParse(mut)
	}
}

// TestCorruptBundleReplayIsSafe parses corrupted-but-accepted bundles and
// ensures replaying them fails cleanly (divergence/error) rather than
// panicking.
func TestCorruptBundleReplayIsSafe(t *testing.T) {
	prog := workload.Counter(300, 2)
	b, err := Record(prog, recordCfg(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	good := b.Marshal()
	rng := rand.New(rand.NewSource(7))
	parsed := 0
	for i := 0; i < 3000 && parsed < 60; i++ {
		mut := append([]byte(nil), good...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		loaded, err := UnmarshalBundle(mut)
		if err != nil {
			continue
		}
		parsed++
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("replay panicked on corrupted bundle: %v", r)
				}
			}()
			rr, err := Replay(prog, loaded)
			if err == nil {
				// A flipped bit may be semantically harmless (e.g. inside
				// unverified metadata); verification is the last line.
				_ = Verify(loaded, rr)
			}
		}()
	}
	if parsed == 0 {
		t.Skip("no corruption survived parsing (format fully self-checking)")
	}
}
