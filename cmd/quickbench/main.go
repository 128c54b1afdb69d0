// Command quickbench regenerates the paper's evaluation: every table
// and figure reconstructed in DESIGN.md's experiment index, printed as
// aligned text.
//
// Usage:
//
//	quickbench                 # run everything
//	quickbench -exp F1         # one experiment (T1 T2 F1..F8 A1..A11)
//	quickbench -exp A8 -workers 8
//	                           # parallel-replay speedup on 8 workers
//	quickbench -threads 1,2,4  # thread sweep
//	quickbench -seed 7         # scheduler seed
//	quickbench -list           # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all)")
	threads := flag.String("threads", "1,2,4", "comma-separated thread counts")
	seed := flag.Uint64("seed", 1, "scheduler seed")
	scale := flag.Uint64("scale", 1, "workload input-size multiplier (larger approaches paper-scale runs)")
	seeds := flag.Int("seeds", 1, "average overhead experiments over this many schedules")
	workers := flag.Int("workers", 0, "worker pool for the parallel-replay experiment (0 = 4, negative = all CPUs)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Seeds: *seeds, Workers: *workers}
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "quickbench: bad thread count %q\n", part)
			os.Exit(2)
		}
		cfg.Threads = append(cfg.Threads, n)
	}

	if *exp == "" {
		if err := experiments.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "quickbench:", err)
			os.Exit(1)
		}
		return
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "quickbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
	if err := e.Run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickbench:", err)
		os.Exit(1)
	}
}
