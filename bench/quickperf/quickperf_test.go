package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

var workdir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "quickperf-test-")
	if err != nil {
		panic(err)
	}
	workdir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tracedRuns caches one short traced run per workload; a traced run
// measures the end-to-end metrics too. Tests in a package run one at a
// time, so the map needs no lock.
var tracedRuns = map[string]*result{}

func tracedRun(t *testing.T, name string) *result {
	t.Helper()
	if r := tracedRuns[name]; r != nil {
		return r
	}
	r, err := run(options{
		workload: name, seed: 7, seconds: 0.05, trace: true,
		traceOut: filepath.Join(workdir, name+".json"), workdir: workdir, setups: 1,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tracedRuns[name] = r
	return r
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// lastLineMetrics writes r and returns the metric names of its final
// JSON line, checking the line's shape.
func lastLineMetrics(t *testing.T, r *result) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("last line keys %v, want %v", keys, want)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := tracedRun(t, w.name)
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d jobs failed: %v", r.failed, r.attempted, r.errs)
			}
			for _, m := range r.endToEnd {
				if !(m.value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
				}
			}
			if got := lastLineMetrics(t, r); !reflect.DeepEqual(got, sorted(perLayer)) {
				t.Errorf("traced metrics %v, declared %v", got, perLayer)
			}
			untraced := *r
			untraced.traced = false
			if got := lastLineMetrics(t, &untraced); !reflect.DeepEqual(got, sorted(endToEnd)) {
				t.Errorf("untraced metrics %v, declared %v", got, endToEnd)
			}
		})
	}
}

func TestJobListFromSeed(t *testing.T) {
	const cycles = 3
	for _, w := range workloads {
		n := len(w.programs)
		list := func(seed uint64) []job {
			var js []job
			for i := 0; i < cycles*n*clients; i++ {
				js = append(js, w.job(seed, i))
			}
			return js
		}
		a, b, c := list(7), list(7), list(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two job lists", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w.name)
		}
		seeds := map[uint64]bool{}
		for _, j := range a {
			seeds[j.seed] = true
		}
		if len(seeds) != len(a) {
			t.Errorf("%s: %d scheduler seeds for %d jobs", w.name, len(seeds), len(a))
		}
		for cl := 0; cl < clients; cl++ {
			for cycle := 0; cycle < cycles; cycle++ {
				var progs []string
				for r := cycle * n; r < (cycle+1)*n; r++ {
					progs = append(progs, a[r*clients+cl].program)
				}
				if !reflect.DeepEqual(sorted(progs), sorted(w.programs)) {
					t.Errorf("%s: client %d cycle %d runs %v, not each program once", w.name, cl, cycle, progs)
				}
			}
		}
	}
}

func TestModelledMetricsRepeat(t *testing.T) {
	w, _ := workloadByName("ingest-io")
	progs, err := buildPrograms(w.programs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := reference(w.programs, progs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reference(w.programs, progs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reference recordings differ between runs:\n%+v\n%+v", a, b)
	}
	r := tracedRun(t, "ingest-io")
	for _, m := range r.endToEnd {
		switch m.name {
		case "rec_overhead_pct":
			if want := 100 * a.overheadSum / float64(a.recordings); m.value != want {
				t.Errorf("rec_overhead_pct %v, reference gives %v", m.value, want)
			}
		case "log_bytes_per_kinstr":
			if want := float64(a.streamBytes) / (float64(a.instrs) / 1e3); m.value != want {
				t.Errorf("log_bytes_per_kinstr %v, reference gives %v", m.value, want)
			}
		}
	}
}

func TestTraceSpansNestInJobs(t *testing.T) {
	for _, w := range workloads {
		tracedRun(t, w.name)
		data, err := os.ReadFile(filepath.Join(workdir, w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ TraceEvents []traceEvent }
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: trace is not trace-event JSON: %v", w.name, err)
		}
		byID := map[int]traceEvent{}
		children := map[int]int{}
		id := func(ev traceEvent, key string) int { return int(ev.Args[key].(float64)) }
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				byID[id(ev, "span_id")] = ev
			}
		}
		for _, ev := range byID {
			p := id(ev, "parent_id")
			if p == 0 {
				if ev.Name != "job" {
					t.Errorf("%s: top-level span %q is not a job", w.name, ev.Name)
				}
				continue
			}
			job, ok := byID[p]
			children[p]++
			const eps = 1e-3 // µs: float rounding of the timestamps
			switch {
			case !ok || job.Name != "job":
				t.Errorf("%s: span %q has parent %d, not a job span", w.name, ev.Name, p)
			case ev.Tid != job.Tid || id(ev, "trace_id") != id(job, "trace_id"):
				t.Errorf("%s: span %q is on another track or trace than its job", w.name, ev.Name)
			case ev.Ts < job.Ts-eps || ev.Ts+ev.Dur > job.Ts+job.Dur+eps:
				t.Errorf("%s: span %q [%v, +%v] outside its job [%v, +%v]", w.name, ev.Name, ev.Ts, ev.Dur, job.Ts, job.Dur)
			}
		}
		for sid, ev := range byID {
			if ev.Name == "job" && children[sid] == 0 {
				t.Errorf("%s: job span %d has no layer spans", w.name, sid)
			}
		}
	}
}

func TestLayerSelfTimesWithinJobWall(t *testing.T) {
	for _, w := range workloads {
		r := tracedRun(t, w.name)
		jobs := map[int]span{}
		var layers []span
		for _, s := range r.spans {
			if s.parent == 0 {
				jobs[s.id] = s
			} else {
				layers = append(layers, s)
			}
		}
		for id, job := range jobs {
			var kids []span
			for _, s := range layers {
				if s.parent == id {
					kids = append(kids, s)
				}
			}
			_, self := layerTimes(kids)
			var sum time.Duration
			for _, d := range self {
				sum += d
			}
			if wall := job.end - job.start; sum > wall {
				t.Errorf("%s: job %d layer self times sum to %v, job wall %v", w.name, job.job, sum, wall)
			}
		}
	}
}

func TestLayerTimesSubtractCoveredChildren(t *testing.T) {
	at := func(id, parent int, layer string, start, end time.Duration) span {
		return span{id: id, parent: parent, layer: layer, start: start, end: end}
	}
	spans := []span{
		at(1, 0, "job", 0, 10),
		at(2, 1, "a", 1, 4),
		at(3, 1, "b", 3, 6),  // overlaps a
		at(4, 1, "a", 8, 12), // runs past the job's end
	}
	total, self := layerTimes(spans)
	if self["job"] != 3 || total["job"] != 10 {
		t.Errorf("job self %v total %v, want 3 and 10", self["job"], total["job"])
	}
	if self["a"] != 7 || self["b"] != 3 {
		t.Errorf("leaf self times a=%v b=%v, want 7 and 3", self["a"], self["b"])
	}
}
