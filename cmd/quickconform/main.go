// Command quickconform runs the record/replay conformance matrix:
// metamorphic properties over the workload catalogue plus systematic
// single-fault corruption in ten fault classes — eight corrupt the
// serialized chunk and input logs, two tear or bit-flip the segmented
// stream a crashed recorder leaves behind — asserting that every
// material fault is detected explicitly and never accepted silently.
//
// Usage:
//
//	quickconform                          # the full acceptance matrix
//	quickconform -workloads counter,fuzz-7 -cores 1,2 -mutations 6
//	quickconform -faults bit-flip,drop -seed 3
//	quickconform -faults torn-write,stream-corrupt
//	quickconform -list                    # show fault classes and exit
//
// The process exits 0 when the matrix passes (no silent divergence, no
// metamorphic failure) and 1 when it does not.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	quickrec "repro"
	"repro/internal/harness"
)

func main() {
	var (
		workloads = flag.String("workloads", "", "comma-separated workload names; fuzz-<seed> generates a program (default: acceptance set)")
		cores     = flag.String("cores", "", "comma-separated core counts to sweep (default 1,2,4)")
		threads   = flag.Int("threads", 0, "threads per workload (default 4)")
		faults    = flag.String("faults", "", "comma-separated fault classes (default all; see -list)")
		mutations = flag.Int("mutations", 0, "material faults, or random stream cuts and flips, per matrix cell (default 12)")
		reroll    = flag.Int("reroll", 0, "site re-roll budget per mutation slot (default 24)")
		seed      = flag.Uint64("seed", 1, "seed for schedules and injection sites; 0 is a valid seed")
		skipMeta  = flag.Bool("skip-meta", false, "skip the metamorphic property pass")
		list      = flag.Bool("list", false, "list fault classes and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("fault classes:")
		for _, c := range harness.AllFaults() {
			fmt.Printf("  %s\n", c)
		}
		return
	}

	cfg := quickrec.ConformanceConfig{
		Threads:           *threads,
		MutationsPerClass: *mutations,
		RerollBudget:      *reroll,
		Seed:              *seed,
		SkipMetamorphic:   *skipMeta,
	}
	if *workloads != "" {
		cfg.Workloads = splitList(*workloads)
	}
	if *cores != "" {
		for _, s := range splitList(*cores) {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				fatalf("bad core count %q", s)
			}
			cfg.Cores = append(cfg.Cores, n)
		}
	}
	if *faults != "" {
		for _, s := range splitList(*faults) {
			c, ok := harness.FaultByName(s)
			if !ok {
				fatalf("unknown fault class %q (see -list)", s)
			}
			cfg.Faults = append(cfg.Faults, c)
		}
	}

	rep, err := quickrec.Conformance(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Print(rep.String())
	if !rep.OK() {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quickconform: "+format+"\n", args...)
	os.Exit(2)
}
