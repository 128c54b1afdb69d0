// Command quickperf is the repository's end-to-end benchmark. One run
// measures one workload as a closed loop of two clients driving the
// whole pipeline in one process: record → segment stream → loopback
// ingest upload → server-side verification, or, on analyze, decode →
// replay → verify → race detection → fleet replay. It checks every job's
// output, prints every metric as "name value unit", and ends with one
// JSON line. A traced run (-trace 1) times each call into a layer as a
// span and reports the per-layer split instead.
//
//	go run ./quickperf -workload record-splash -seed 1 -seconds 30 [-trace 1 [-trace-out t.json]]
//
// (run from the bench directory, which is its own module).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: record-splash, ingest-io or analyze")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the job list is generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed loop in seconds")
	flag.IntVar(&trace, "trace", 0, "1: trace layer calls and report per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a traced run's spans to this file as Chrome trace-event JSON")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/quickperf", "directory for the ingest stores")
	flag.Parse()
	o.trace = trace != 0 || o.traceOut != ""
	o.setups = 5
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickperf:", err)
		os.Exit(1)
	}
	for _, msg := range r.errs {
		fmt.Fprintln(os.Stderr, "quickperf: failed:", msg)
	}
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickperf:", err)
		os.Exit(1)
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome. endToEnd is always measured; perLayer
// and spans only on a traced run.
type result struct {
	workload          string
	seed              uint64
	traced            bool
	setups, samples   int
	attempted, failed int
	errs              []string
	endToEnd          []metric
	perLayer          []metric
	extra             []metric // printed, but not in the JSON line
	spans             []span
}

// metrics returns the metrics the final JSON line carries: the
// end-to-end ones untraced, the per-layer ones traced.
func (r *result) metrics() []metric {
	if r.traced {
		return r.perLayer
	}
	return r.endToEnd
}

func (r *result) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# host nproc=%d gomaxprocs=%d go=%s os=%s arch=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Fprintf(bw, "# run workload=%s seed=%d traced=%t setups=%d jobs=%d failed=%d latency_samples=%d\n",
		r.workload, r.seed, r.traced, r.setups, r.attempted, r.failed, r.samples)
	for _, m := range append(append(r.endToEnd, r.extra...), r.perLayer...) {
		fmt.Fprintf(bw, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value)}
	for _, m := range r.metrics() {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	bw.Write(append(line, '\n'))
	return bw.Flush()
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
