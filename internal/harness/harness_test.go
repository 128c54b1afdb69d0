package harness

import (
	"strings"
	"testing"
)

// TestRunSmallMatrix is the tier-1 conformance smoke: a reduced matrix
// must place faults under every class, detect all of them, and pass the
// metamorphic properties.
func TestRunSmallMatrix(t *testing.T) {
	cfg := Config{
		Workloads:         []string{"counter", "fuzz-7"},
		Cores:             []int{1, 2},
		Threads:           3,
		MutationsPerClass: 4,
		Seed:              5,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := rep.Silent(); n != 0 {
		t.Errorf("silent divergences: got %d, want 0", n)
		for _, c := range rep.Cells {
			for _, ex := range c.SilentExamples {
				t.Logf("SILENT %s × %d × %s: %s", c.Workload, c.Cores, c.Class, ex)
			}
		}
	}
	if fails := rep.MetaFailures(); len(fails) != 0 {
		t.Errorf("metamorphic failures: %v", fails)
	}
	// Five base properties plus parallel-replay-matches-serial and
	// distributed-matches-serial per cell; neither workload here
	// declares a race expectation.
	wantMeta := len(cfg.Workloads) * len(cfg.Cores) * 7
	if got := len(rep.Meta); got != wantMeta {
		t.Errorf("metamorphic results: got %d, want %d", got, wantMeta)
	}

	// Every fault class, the stream classes included, must actually land
	// material injections somewhere in the matrix; a class that never
	// places is a dead test dimension.
	perClass := map[FaultClass]int{}
	for _, c := range rep.Cells {
		perClass[c.Class] += c.Injected
		if c.Detected()+c.Silent != c.Injected {
			t.Errorf("%s × %d × %s: injected %d but classified %d",
				c.Workload, c.Cores, c.Class, c.Injected, c.Detected()+c.Silent)
		}
	}
	for _, class := range AllFaults() {
		if perClass[class] == 0 {
			t.Errorf("fault class %s placed no material injections", class)
		}
	}

	if !rep.OK() {
		t.Errorf("report not OK")
	}
	s := rep.String()
	for _, want := range []string{
		"Metamorphic properties:",
		"Fault-injection coverage",
		"CONFORMANCE: PASS",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
}

// TestRunDeterminism pins that the whole matrix is a pure function of
// its configuration: two runs produce cell-for-cell identical counts.
func TestRunDeterminism(t *testing.T) {
	cfg := Config{
		Workloads:         []string{"pingpong"},
		Cores:             []int{2},
		Threads:           3,
		MutationsPerClass: 3,
		Seed:              9,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("reports differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestConfigFill(t *testing.T) {
	var c Config
	c.fill()
	d := DefaultConfig()
	if len(c.Workloads) != len(d.Workloads) || c.Threads != d.Threads ||
		c.MutationsPerClass != d.MutationsPerClass || c.RerollBudget != d.RerollBudget ||
		len(c.Faults) != len(d.Faults) {
		t.Errorf("fill() did not apply defaults: %+v", c)
	}
	// Seed 0 is a valid seed and must survive fill() untouched — it is
	// not an ask for the default.
	if c.Seed != 0 {
		t.Errorf("fill() replaced zero seed with %d", c.Seed)
	}
	// Explicit values survive.
	c = Config{Workloads: []string{"counter"}, Cores: []int{1}, Threads: 2, MutationsPerClass: 1, Seed: 3}
	c.fill()
	if len(c.Workloads) != 1 || c.Threads != 2 || c.MutationsPerClass != 1 || c.Seed != 3 {
		t.Errorf("fill() clobbered explicit values: %+v", c)
	}
}

func TestFaultByName(t *testing.T) {
	if n := len(AllFaults()); n != 10 {
		t.Errorf("AllFaults lists %d classes, want 10", n)
	}
	for _, class := range AllFaults() {
		got, ok := FaultByName(string(class))
		if !ok || got != class {
			t.Errorf("FaultByName(%q) = (%q, %v)", class, got, ok)
		}
	}
	if _, ok := FaultByName("meteor-strike"); ok {
		t.Errorf("FaultByName accepted an unknown class")
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeInert:  "inert",
		OutcomeDecode: "decode",
		OutcomeReplay: "replay",
		OutcomeVerify: "verify",
		OutcomeBenign: "benign",
		OutcomeSilent: "SILENT",
		OutcomePrefix: "prefix",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}
