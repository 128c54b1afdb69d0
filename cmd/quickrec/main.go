// Command quickrec records, replays, verifies and inspects executions of
// the catalogue workloads on the simulated QuickRec prototype.
//
// Usage:
//
//	quickrec list
//	quickrec record  -w radix -threads 4 -seed 42 -o radix.qrec
//	quickrec record  -w radix -stream radix.qstream -o radix.qrec
//	quickrec replay  -w radix -i radix.qrec
//	quickrec verify  -w radix -i radix.qrec
//	quickrec salvage -i radix.qstream -o salvaged.qrec -replay
//	quickrec inspect -i radix.qrec
//	quickrec debug   -i radix.qrec -t 1 -n 5000 -trace 10
//	quickrec analyze -i radix.qrec
//	quickrec record  -w racy -sigs -o racy.qrec
//	quickrec race    -i racy.qrec -json
//	quickrec record  -prog examples/qasm/demo.qasm -o demo.qrec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	quickrec "repro"
	"repro/internal/analysis"
	"repro/internal/chunk"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList()
	case "record":
		err = cmdRecord(args)
	case "replay":
		err = cmdReplay(args, false)
	case "verify":
		err = cmdReplay(args, true)
	case "salvage":
		err = cmdSalvage(args)
	case "inspect":
		err = cmdInspect(args)
	case "debug":
		err = cmdDebug(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "race":
		err = cmdRace(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickrec:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: quickrec <list|record|replay|verify|salvage|inspect|debug|analyze|race> [flags]
  list                             show the workload catalogue
  record  -w NAME | -prog FILE.qasm [-threads N] [-seed S] [-hw] [-sigs] [-ckpt N] [-stream FILE [-flush N]] -o FILE
  replay  -w NAME -i FILE [-workers N] [-remote HOST:PORT]
                                   replay a recording; -workers > 1 replays checkpoint
                                   intervals in parallel (-1 = all CPUs); -remote
                                   distributes them across a quickrecd worker fleet
  verify  -w NAME -i FILE [-workers N] [-remote HOST:PORT]
                                   replay and verify against the recording
  salvage -i FILE [-o FILE] [-replay [-workers N]] [-tail]
                                   recover a consistent prefix from a (damaged) stream
  inspect -i FILE                  summarise a recording's logs
  debug   -i FILE -t TID -n COUNT  replay to thread TID's COUNT-th instruction and dump state
  analyze -i FILE                  post-mortem statistics: chunking, conflicts, concurrency
  race    -i FILE [-json] [-workers N] [-remote HOST:PORT]
                                   offline race detection over a -sigs recording`)
}

func cmdList() error {
	t := report.Table{Title: "Workload catalogue", Columns: []string{"name", "kind", "description"}}
	for _, w := range quickrec.Workloads() {
		t.AddRow(w.Name, w.Kind, w.Description)
	}
	fmt.Print(t.String())
	return nil
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("w", "", "workload name")
	progPath := fs.String("prog", "", "qasm program file (alternative to -w)")
	threads := fs.Int("threads", 4, "thread count")
	seed := fs.Uint64("seed", 1, "scheduler seed")
	hw := fs.Bool("hw", false, "hardware-only cost accounting")
	sigs := fs.Bool("sigs", false, "capture per-chunk Bloom signatures (enables `quickrec race`)")
	ckpt := fs.Uint64("ckpt", 0, "flight-recorder checkpoint cadence in instructions (0 = never; enables parallel replay)")
	out := fs.String("o", "", "output recording file")
	stream := fs.String("stream", "", "also write the crash-consistent segmented stream to this file")
	flush := fs.Uint64("flush", 0, "stream flush cadence in chunks (0 = default)")
	fs.Parse(args)
	if (*name == "" && *progPath == "") || *out == "" {
		return fmt.Errorf("record needs -w or -prog, and -o")
	}
	prog, err := loadProgram(*name, *progPath, *threads)
	if err != nil {
		return err
	}
	if *name == "" {
		*name = prog.Name
	}
	opts := quickrec.Options{Threads: *threads, Seed: *seed, HardwareOnly: *hw,
		CaptureSignatures: *sigs, CheckpointEveryInstrs: *ckpt, FlushEveryChunks: *flush}
	var rec *quickrec.Recording
	if *stream != "" {
		f, err := os.Create(*stream)
		if err != nil {
			return err
		}
		rec, err = quickrec.StreamRecord(prog, opts, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	} else if rec, err = quickrec.Record(prog, opts); err != nil {
		return err
	}
	if err := os.WriteFile(*out, rec.Marshal(), 0o644); err != nil {
		return err
	}
	st := rec.RecordStats
	fmt.Printf("recorded %s: %d threads, %d instrs, %d cycles, %d chunks, %d input records -> %s\n",
		*name, rec.Threads, st.Retired, st.Cycles, totalChunks(rec), rec.InputLog.Len(), *out)
	if *stream != "" {
		fmt.Printf("streamed %d segments, %d bytes (%d framing) -> %s\n",
			st.StreamSegments, st.StreamBytes, st.StreamFramingBytes, *stream)
	}
	return nil
}

func cmdSalvage(args []string) error {
	fs := flag.NewFlagSet("salvage", flag.ExitOnError)
	in := fs.String("i", "", "segmented stream file")
	out := fs.String("o", "", "write the salvaged recording here")
	doReplay := fs.Bool("replay", false, "best-effort replay of the salvaged prefix")
	doTail := fs.Bool("tail", false, "salvage the flight-recorder tail instead of the full prefix")
	workers := fs.Int("workers", 0, "replay checkpoint intervals on this many workers (0/1 = serial, -1 = all CPUs)")
	progPath := fs.String("prog", "", "qasm program file (for non-catalogue recordings)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("missing -i stream file")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	sv, err := quickrec.Salvage(data)
	if err != nil {
		return fmt.Errorf("stream beyond salvage: %w", err)
	}
	fmt.Println(sv.Report)
	rec := sv.Bundle
	if *doTail {
		if rec, err = sv.Tail(); err != nil {
			return err
		}
		fmt.Println("flight-recorder tail: replay resumes from the last surviving checkpoint")
	}
	if *out != "" {
		if err := os.WriteFile(*out, rec.Marshal(), 0o644); err != nil {
			return err
		}
		kind := "complete recording"
		if rec.Partial {
			kind = "partial recording (prefix only, not verifiable)"
		}
		fmt.Printf("salvaged %s -> %s\n", kind, *out)
	}
	if !*doReplay {
		return nil
	}
	prog, err := loadProgram(rec.ProgramName, *progPath, rec.Threads)
	if err != nil {
		return err
	}
	rr, err := quickrec.ReplayParallel(prog, rec, *workers)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s: %d chunks, %d input records, %d steps\n",
		rec.ProgramName, rr.ChunksExecuted, rr.InputsApplied, rr.Steps)
	if rr.Truncation != nil {
		fmt.Printf("replay truncated: %s\n", rr.Truncation)
	}
	if !rec.Partial {
		if err := quickrec.Verify(rec, rr); err != nil {
			return err
		}
		fmt.Println("verified: replay reproduced the recorded execution exactly")
	}
	return nil
}

// loadProgram resolves the program to run against: a qasm source file
// when progPath is set, otherwise the named catalogue workload.
func loadProgram(name, progPath string, threads int) (*quickrec.Program, error) {
	if progPath != "" {
		src, err := os.ReadFile(progPath)
		if err != nil {
			return nil, err
		}
		return quickrec.ParseProgram(string(src))
	}
	return quickrec.BuildWorkload(name, threads)
}

// loadRecording maps the recording file read-only and decodes it in
// place (the v2 zero-copy path); the returned close function unmaps it
// and must outlive every use of the recording.
func loadRecording(fs *flag.FlagSet, in string) (*quickrec.Recording, func() error, error) {
	if in == "" {
		return nil, nil, fmt.Errorf("missing -i recording file")
	}
	return quickrec.OpenRecording(in)
}

func cmdReplay(args []string, verify bool) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	name := fs.String("w", "", "workload name")
	progPath := fs.String("prog", "", "qasm program file (alternative to -w)")
	in := fs.String("i", "", "recording file")
	workers := fs.Int("workers", 0, "replay checkpoint intervals on this many workers (0/1 = serial, -1 = all CPUs)")
	remote := fs.String("remote", "", "distribute intervals across the fleet workers attached to this quickrecd server instead of replaying locally")
	fs.Parse(args)
	rec, done, err := loadRecording(fs, *in)
	if err != nil {
		return err
	}
	defer done()
	if *name == "" {
		*name = rec.ProgramName
	}
	prog, err := loadProgram(*name, *progPath, rec.Threads)
	if err != nil {
		return err
	}
	var rr *quickrec.ReplayResult
	if *remote != "" {
		client, err := quickrec.DialFleet(*remote)
		if err != nil {
			return err
		}
		defer client.Close()
		rr, err = client.Replay(prog, rec)
		if err != nil {
			return err
		}
	} else if rr, err = quickrec.ReplayParallel(prog, rec, *workers); err != nil {
		return err
	}
	fmt.Printf("replayed %s: %d chunks, %d input records, %d steps\n",
		rec.ProgramName, rr.ChunksExecuted, rr.InputsApplied, rr.Steps)
	if verify {
		if err := quickrec.Verify(rec, rr); err != nil {
			return err
		}
		fmt.Println("verified: replay reproduced the recorded execution exactly")
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("i", "", "recording file")
	fs.Parse(args)
	rec, done, err := loadRecording(fs, *in)
	if err != nil {
		return err
	}
	defer done()
	fmt.Printf("recording of %q: %d threads, output %d B, mem checksum %#x\n",
		rec.ProgramName, rec.Threads, len(rec.Output), rec.MemChecksum)

	t := report.Table{Title: "Per-thread logs", Columns: []string{"thread", "chunks", "instrs", "ts-delta B", "input recs"}}
	perThreadInputs := map[int]int{}
	for _, r := range rec.InputLog.Records {
		perThreadInputs[r.Thread]++
	}
	var reasons stats.Counter
	for tid, l := range rec.ChunkLogs {
		t.AddRow(report.U(uint64(tid)), report.U(uint64(l.Len())),
			report.U(l.TotalInstructions()), report.U(uint64(l.EncodedSize(chunk.Delta{}))),
			report.U(uint64(perThreadInputs[tid])))
		for _, e := range l.Entries {
			reasons.Inc(int(e.Reason))
		}
	}
	fmt.Print(t.String())

	rt := report.Table{Title: "Chunk termination reasons", Columns: []string{"reason", "count", "share"}}
	for _, k := range reasons.Keys() {
		rt.AddRow(chunk.Reason(k).String(), report.U(reasons.Get(k)), report.Pct(reasons.Fraction(k)))
	}
	fmt.Print(rt.String())
	return nil
}

func cmdDebug(args []string) error {
	fs := flag.NewFlagSet("debug", flag.ExitOnError)
	in := fs.String("i", "", "recording file")
	tid := fs.Int("t", 0, "thread ID")
	n := fs.Uint64("n", 0, "retired-instruction position")
	traceLen := fs.Uint64("trace", 0, "also show the last N instructions before the position")
	progPath := fs.String("prog", "", "qasm program file (for non-catalogue recordings)")
	fs.Parse(args)
	rec, done, err := loadRecording(fs, *in)
	if err != nil {
		return err
	}
	defer done()
	prog, err := loadProgram(rec.ProgramName, *progPath, rec.Threads)
	if err != nil {
		return err
	}
	ps, err := quickrec.ReplayUntil(prog, rec, *tid, *n)
	if err != nil {
		return err
	}
	if !ps.Hit {
		fmt.Printf("recording ended before thread %d retired %d instructions; showing final state\n", *tid, *n)
	}
	ctx := ps.Contexts[*tid]
	fmt.Printf("thread %d paused at PC %d after %d retired instructions\n", *tid, ctx.PC, ctx.Retired)
	if ctx.PC >= 0 && ctx.PC < len(prog.Code) {
		fmt.Printf("next instruction: %s\n", prog.Code[ctx.PC])
	}
	t := report.Table{Title: "Registers (non-zero)", Columns: []string{"reg", "value"}}
	for r, v := range ctx.Regs {
		if v != 0 {
			t.AddRow(fmt.Sprintf("r%d", r), fmt.Sprintf("%#x", v))
		}
	}
	fmt.Print(t.String())
	fmt.Printf("other threads:")
	for otid, octx := range ps.Contexts {
		if otid != *tid {
			fmt.Printf(" t%d@pc=%d/retired=%d", otid, octx.PC, octx.Retired)
		}
	}
	fmt.Println()
	fmt.Printf("output so far: %d bytes; items executed: %d\n", len(ps.Output), ps.ItemsExecuted)
	if *traceLen > 0 {
		from := uint64(0)
		if *n > *traceLen {
			from = *n - *traceLen
		}
		entries, err := quickrec.Trace(prog, rec, *tid, from, *n)
		if err != nil {
			return err
		}
		fmt.Printf("\nlast %d steps of thread %d:\n", len(entries), *tid)
		for _, e := range entries {
			fmt.Printf("  [%7d] pc=%-4d %s\n", e.Retired, e.PC, e.Instr)
		}
	}
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("i", "", "recording file")
	fs.Parse(args)
	rec, done, err := loadRecording(fs, *in)
	if err != nil {
		return err
	}
	defer done()
	rep := analysis.Analyze(rec.ChunkLogs, rec.InputLog)
	fmt.Printf("recording of %q: %d instructions in %d chunks + %d input records\n",
		rec.ProgramName, rep.TotalInstructions, rep.TotalChunks, rep.TotalInputs)
	fmt.Printf("recorded concurrency ~%.2f threads; replay serialization %.2f\n",
		rep.Concurrency, rep.ReplaySerialization)

	t := report.Table{Title: "Per-thread behaviour", Columns: []string{
		"thread", "chunks", "instrs", "mean chunk", "conflicts", "conf/kinstr", "syscall chunks", "inputs"}}
	for _, th := range rep.Threads {
		t.AddRow(report.U(uint64(th.Thread)), report.U(uint64(th.Chunks)),
			report.U(th.Instructions), report.F(th.MeanChunk, 1),
			report.U(uint64(th.Conflicts)), report.F(th.ConflictsPerKinstr, 2),
			report.U(uint64(th.Syscalls)), report.U(uint64(th.InputRecords)))
	}
	fmt.Print(t.String())

	rt := report.Table{Title: "Chunk termination reasons", Columns: []string{"reason", "count", "share"}}
	for _, k := range rep.Reasons.Keys() {
		rt.AddRow(chunk.Reason(k).String(), report.U(rep.Reasons.Get(k)), report.Pct(rep.Reasons.Fraction(k)))
	}
	fmt.Print(rt.String())
	return nil
}

func cmdRace(args []string) error {
	fs := flag.NewFlagSet("race", flag.ExitOnError)
	name := fs.String("w", "", "workload name")
	progPath := fs.String("prog", "", "qasm program file (alternative to -w)")
	in := fs.String("i", "", "recording file (made with record -sigs)")
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	workers := fs.Int("workers", 0, "screen and confirm on this many workers (0/1 = serial, -1 = all CPUs)")
	remote := fs.String("remote", "", "ship the traced interval replays to the fleet workers attached to this quickrecd server (screening and confirmation run here)")
	fs.Parse(args)
	rec, done, err := loadRecording(fs, *in)
	if err != nil {
		return err
	}
	defer done()
	if *name == "" {
		*name = rec.ProgramName
	}
	prog, err := loadProgram(*name, *progPath, rec.Threads)
	if err != nil {
		return err
	}
	var rep *quickrec.RaceReport
	if *remote != "" {
		client, err := quickrec.DialFleet(*remote)
		if err != nil {
			return err
		}
		defer client.Close()
		rep, err = client.Races(prog, rec)
		if err != nil {
			return err
		}
	} else if rep, err = quickrec.RacesParallel(prog, rec, *workers); err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("race detection over %q: %d threads, %d chunks, %d concurrent pairs\n",
		rep.Program, rep.Threads, rep.TotalChunks, rep.ConcurrentPairs)
	fmt.Printf("screening: %d candidate pairs; confirmation: %d pairs with races, bloom false-positive rate %s\n",
		len(rep.Candidates), rep.ConfirmedPairs, report.Pct(rep.FalsePositiveRate))
	if len(rep.Races) == 0 {
		fmt.Println("no races confirmed")
		return nil
	}
	t := report.Table{
		Title:   fmt.Sprintf("Confirmed data races (%d)", len(rep.Races)),
		Columns: []string{"addr", "thread A", "pc A", "kind A", "thread B", "pc B", "kind B"},
	}
	for _, r := range rep.Races {
		t.AddRow(fmt.Sprintf("%#x", r.Addr),
			report.U(uint64(r.ThreadA)), report.U(uint64(r.PCA)), r.KindA,
			report.U(uint64(r.ThreadB)), report.U(uint64(r.PCB)), r.KindB)
	}
	fmt.Print(t.String())
	return nil
}

func totalChunks(rec *quickrec.Recording) int {
	n := 0
	for _, l := range rec.ChunkLogs {
		n += l.Len()
	}
	return n
}
