// Timetravel: the two extensions built on the QuickRec substrate —
// flight-recorder checkpointing (always-on recording with bounded logs)
// and breakpoint replay (materialise any moment of a recorded execution,
// deterministically, as often as you like).
package main

import (
	"fmt"
	"log"

	quickrec "repro"
)

func main() {
	prog, err := quickrec.BuildWorkload("fft", 4)
	if err != nil {
		log.Fatal(err)
	}

	// Record with flight-recorder checkpoints every ~100k instructions.
	rec, err := quickrec.Record(prog, quickrec.Options{
		Seed:                  21,
		CheckpointEveryInstrs: 100_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fullChunks := 0
	for _, l := range rec.ChunkLogs {
		fullChunks += l.Len()
	}
	fmt.Printf("recorded fft: %d instructions, %d chunk entries, %d checkpoints taken\n",
		rec.RecordStats.Retired, fullChunks, len(rec.IntervalCheckpoints))

	// The tail bundle: last checkpoint + only the logs after it.
	tail, err := quickrec.Tail(rec)
	if err != nil {
		log.Fatal(err)
	}
	tailChunks := 0
	for _, l := range tail.ChunkLogs {
		tailChunks += l.Len()
	}
	fmt.Printf("flight-recorder tail: %d chunk entries (%.0f%% of the full log discarded)\n",
		tailChunks, 100*(1-float64(tailChunks)/float64(fullChunks)))
	rr, err := quickrec.Replay(prog, tail)
	if err != nil {
		log.Fatal(err)
	}
	if err := quickrec.Verify(tail, rr); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tail replays to the identical final state: always-on recording works")

	// Time travel: pause thread 2 at three positions and watch its
	// accumulator (R15 holds fft's transpose accumulator) evolve.
	fmt.Println("\nstepping thread 2 through the recording:")
	for _, pos := range []uint64{1000, 50_000, 200_000} {
		ps, err := quickrec.ReplayUntil(prog, rec, 2, pos)
		if err != nil {
			log.Fatal(err)
		}
		if !ps.Hit {
			fmt.Printf("  position %7d: past end of thread\n", pos)
			continue
		}
		ctx := ps.Contexts[2]
		fmt.Printf("  position %7d: PC=%3d next=%q acc(r15)=%#x\n",
			pos, ctx.PC, prog.Code[ctx.PC].String(), ctx.Regs[15])
	}
	fmt.Println("every pause is bit-identical on every visit — a recorded execution is a debuggable artifact")
}
