package experiments

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// smallConfig keeps experiment tests quick: two thread counts.
func smallConfig() Config { return Config{Threads: []int{1, 4}, Seed: 1} }

func runExp(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	var buf bytes.Buffer
	if err := e.Run(smallConfig(), &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A10", "A11"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("slot %d = %s, want %s", i, all[i].ID, id)
		}
	}
	if _, ok := ByID("f3"); !ok {
		t.Error("ByID not case-insensitive")
	}
	if _, ok := ByID("Z9"); ok {
		t.Error("unknown ID found")
	}
}

func TestT1ListsConfiguration(t *testing.T) {
	out := runExp(t, "T1")
	for _, want := range []string{"cores", "MESI", "Bloom", "CBUF"} {
		if !strings.Contains(out, want) {
			t.Errorf("T1 missing %q", want)
		}
	}
}

func TestT2CoversSuite(t *testing.T) {
	out := runExp(t, "T2")
	for _, name := range []string{"barnes", "fft", "lu", "ocean", "radix", "raytrace", "volrend", "water", "counter", "ioheavy"} {
		if !strings.Contains(out, name) {
			t.Errorf("T2 missing benchmark %s", name)
		}
	}
}

// TestF1HeadlineShape pins the paper's central claims: the recording
// hardware is negligible and the software stack dominates it. With
// syscalls buffered in the thread's input CBUF, the stack's SPLASH
// average must also stay below the paper's ~13%.
func TestF1HeadlineShape(t *testing.T) {
	out := runExp(t, "F1")
	re := regexp.MustCompile(`hw-only (\d+\.\d)%, full stack (\d+\.\d)%`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no summary line in F1 output:\n%s", out)
	}
	hw, _ := strconv.ParseFloat(m[1], 64)
	full, _ := strconv.ParseFloat(m[2], 64)
	if hw > 1.5 {
		t.Errorf("hardware overhead %v%% not negligible", hw)
	}
	if full < 5 || full >= 13 {
		t.Errorf("full-stack average %v%% not below the paper's ~13%% (and at least 5%%)", full)
	}
	if full < hw*3 {
		t.Errorf("software stack (%v%%) should clearly dominate hardware (%v%%)", full, hw)
	}
}

func TestF2InputCopyDominatesForIOHeavy(t *testing.T) {
	out := runExp(t, "F2")
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ioheavy") {
			fields := strings.Fields(line)
			// columns: benchmark driver input-copy ...
			copyPct, err := strconv.ParseFloat(strings.TrimSuffix(fields[2], "%"), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", fields[2], err)
			}
			if copyPct < 40 {
				t.Errorf("ioheavy input-copy share %v%% unexpectedly small", copyPct)
			}
			return
		}
	}
	t.Fatal("no ioheavy row in F2")
}

func TestF3RatesFinite(t *testing.T) {
	out := runExp(t, "F3")
	if !strings.Contains(out, "B/kinstr") || !strings.Contains(out, "SPLASH avg") {
		t.Fatalf("malformed F3 output:\n%s", out)
	}
}

func TestF4InputDominatesIOHeavy(t *testing.T) {
	out := runExp(t, "F4")
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ioheavy") {
			fields := strings.Fields(line)
			share, err := strconv.ParseFloat(strings.TrimSuffix(fields[3], "%"), 64)
			if err != nil {
				t.Fatal(err)
			}
			if share < 90 {
				t.Errorf("ioheavy input share = %v%%, want >90%%", share)
			}
			return
		}
	}
	t.Fatal("no ioheavy row in F4")
}

func TestF5HasCDFs(t *testing.T) {
	out := runExp(t, "F5")
	if !strings.Contains(out, "Chunk-size CDF: counter") || !strings.Contains(out, "Chunk-size CDF: private") {
		t.Errorf("F5 missing CDF sections:\n%s", out)
	}
}

func TestF6ReasonsSumSensible(t *testing.T) {
	out := runExp(t, "F6")
	// private should be overwhelmingly CTR/flush (no sharing).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "private") {
			if strings.Contains(line, "100.0%") || strings.Contains(line, "9") {
				return // some column holds the bulk
			}
		}
	}
	if !strings.Contains(out, "private") {
		t.Fatal("no private row in F6")
	}
}

func TestF7DeltaBeatsFixed(t *testing.T) {
	out := runExp(t, "F7")
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 6 || fields[0] == "benchmark" || !strings.HasSuffix(fields[5], "%") {
			continue
		}
		fixed, err1 := strconv.ParseFloat(fields[2], 64)
		delta, err2 := strconv.ParseFloat(fields[4], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if delta >= fixed {
			t.Errorf("row %q: ts-delta (%v B) not smaller than fixed16 (%v B)", fields[0], delta, fixed)
		}
	}
}

func TestF8AllVerified(t *testing.T) {
	out := runExp(t, "F8")
	if strings.Contains(out, "MISMATCH") || strings.Contains(out, "REPLAY-ERR") {
		t.Fatalf("replay validation failures:\n%s", out)
	}
	if strings.Count(out, "OK") < 12 {
		t.Errorf("expected 13 OK rows:\n%s", out)
	}
}

func TestA1SoftwareDominates(t *testing.T) {
	out := runExp(t, "A1")
	re := regexp.MustCompile(`full stack (\d+\.\d)% vs software-only (\d+\.\d+)%`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no summary in A1:\n%s", out)
	}
	full, _ := strconv.ParseFloat(m[1], 64)
	sw, _ := strconv.ParseFloat(m[2], 64)
	if sw < 3*full {
		t.Errorf("software-only (%v%%) should dwarf the full stack (%v%%)", sw, full)
	}
}

func TestA2ChunksShrinkWithSignature(t *testing.T) {
	out := runExp(t, "A2")
	var chunks []float64
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 4 {
			if _, err := strconv.Atoi(fields[0]); err == nil {
				c, err := strconv.ParseFloat(fields[2], 64)
				if err == nil {
					chunks = append(chunks, c)
				}
			}
		}
	}
	if len(chunks) < 4 {
		t.Fatalf("sweep rows missing:\n%s", out)
	}
	for i := 1; i < len(chunks); i++ {
		if chunks[i] > chunks[i-1] {
			t.Errorf("chunk count rose with a bigger signature: %v", chunks)
		}
	}
}

func TestA3AblationBreaksReplay(t *testing.T) {
	out := runExp(t, "A3")
	lines := strings.Split(out, "\n")
	var onLine, offLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "on ") {
			onLine = l
		}
		if strings.HasPrefix(l, "off") {
			offLine = l
		}
	}
	if !strings.Contains(onLine, "5/5") || !strings.Contains(strings.Fields(onLine)[2], "5/5") {
		t.Errorf("residue-on runs not all exact: %q", onLine)
	}
	offFields := strings.Fields(offLine)
	if len(offFields) < 5 || offFields[4] == "0/5" {
		t.Errorf("ablated runs did not break replay: %q", offLine)
	}
}

func TestRunAllProducesEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := RunAll(smallConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "=== "+e.ID+":") {
			t.Errorf("missing section %s", e.ID)
		}
	}
}

func TestA4FlightRecorder(t *testing.T) {
	out := runExp(t, "A4")
	if strings.Contains(out, "MISMATCH") || strings.Contains(out, "ERROR") {
		t.Fatalf("flight-recorder tails failed:\n%s", out)
	}
	if !strings.Contains(out, "OK (exact)") {
		t.Fatalf("no verified tails:\n%s", out)
	}
}

func TestA5CountingConvention(t *testing.T) {
	out := runExp(t, "A5")
	var mirrored, naive string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "(mirrored)") {
			mirrored = l
		}
		if strings.Contains(l, "(naive)") {
			naive = l
		}
	}
	if !strings.Contains(mirrored, "OK (exact)") {
		t.Errorf("mirrored convention not exact: %q", mirrored)
	}
	if !strings.Contains(naive, "DIVERGED") && !strings.Contains(naive, "MISMATCH") {
		t.Errorf("naive convention did not break: %q", naive)
	}
}

func TestA7RaceDetection(t *testing.T) {
	out := runExp(t, "A7")
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) < 8 || (f[0] != "racy" && f[0] != "racefree") {
			continue
		}
		threads, races := f[1], f[6]
		if f[0] == "racy" && threads == "4" && races == "0" {
			t.Errorf("racy at 4 threads confirmed no races: %q", l)
		}
		if f[0] == "racefree" && races != "0" {
			t.Errorf("racefree confirmed races: %q", l)
		}
	}
}

// TestScaleReducesLogRate pins the input-size explanation for F3's
// absolute rates: growing the workloads lowers bytes-per-kiloinstruction
// (the paper's full-size inputs sit far down this curve).
func TestScaleReducesLogRate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rate := func(scale uint64) float64 {
		var buf bytes.Buffer
		cfg := Config{Threads: []int{4}, Seed: 1, Scale: scale}
		if err := F3(cfg, &buf); err != nil {
			t.Fatal(err)
		}
		re := regexp.MustCompile(`SPLASH avg @4 threads: (\d+\.\d+) B/kinstr`)
		m := re.FindStringSubmatch(buf.String())
		if m == nil {
			t.Fatalf("no summary:\n%s", buf.String())
		}
		v, _ := strconv.ParseFloat(m[1], 64)
		return v
	}
	small, big := rate(1), rate(4)
	if big >= small {
		t.Errorf("log rate did not fall with scale: %v -> %v B/kinstr", small, big)
	}
}

func TestA8ParallelReplay(t *testing.T) {
	out := runExp(t, "A8")
	if !strings.Contains(out, "Parallel interval replay") {
		t.Fatalf("A8 output missing title:\n%s", out)
	}
	if strings.Contains(out, "MISMATCH") || strings.Contains(out, "DIVERGED") {
		t.Fatalf("A8 reports a replay mismatch:\n%s", out)
	}
	if !strings.Contains(out, "OK (identical)") {
		t.Fatalf("A8 verified no benchmark (all runs too short?):\n%s", out)
	}
}

func TestA10ShootoutHeadline(t *testing.T) {
	out := runExp(t, "A10")
	for _, codec := range []string{"v1", "v2-raw", "v2-lz", "gob", "json"} {
		if !strings.Contains(out, codec) {
			t.Errorf("A10 output missing codec %s", codec)
		}
	}
	// The headline claim: on ioheavy, the compressed v2 format is at
	// least 2x smaller than v1.
	io := out[strings.Index(out, "ioheavy"):]
	m := regexp.MustCompile(`v2-lz\s+\S+\s+\S+\s+\S+\s+\S+\s+(\d+\.\d+)x`).FindStringSubmatch(io)
	if m == nil {
		t.Fatalf("A10 ioheavy table has no v2-lz ratio:\n%s", io)
	}
	if ratio, _ := strconv.ParseFloat(m[1], 64); ratio < 2.0 {
		t.Errorf("A10 ioheavy v2-lz ratio %.2fx, want >= 2x", ratio)
	}
}

func TestA11FleetScaling(t *testing.T) {
	out := runExp(t, "A11")
	if !strings.Contains(out, "Fleet replay/race-detection cost") {
		t.Fatalf("A11 output missing title:\n%s", out)
	}
	for _, name := range []string{"fft", "water", "racy"} {
		if !strings.Contains(out, name) {
			t.Errorf("A11 output missing benchmark %s", name)
		}
	}
	if strings.Contains(out, "DIVERGED") || strings.Contains(out, "VERIFY FAIL") {
		t.Fatalf("A11 reports a distributed divergence:\n%s", out)
	}
	// Every (benchmark, fleet size) cell must be bit-identical to serial:
	// 3 benchmarks x 3 worker counts.
	if n := strings.Count(out, "OK (identical)"); n != 9 {
		t.Fatalf("A11 verified %d cells, want 9:\n%s", n, out)
	}
}
