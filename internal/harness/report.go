package harness

import (
	"fmt"
	"strings"

	"repro/internal/report"
)

// Cell is one (workload, cores, fault class) point of the matrix.
type Cell struct {
	Workload string
	Cores    int
	Class    FaultClass
	// Injected counts placed material faults; Decode/Replay/Verify are
	// the detection points; Silent counts wrong executions accepted as
	// correct (the conformance failure).
	Injected int
	Decode   int
	Replay   int
	Verify   int
	Silent   int
	// Prefix counts torn streams salvaged to a verified prefix replay
	// (zero outside torn-write cells).
	Prefix int
	// Benign counts mutations that replayed to exactly the original
	// execution (legal alternative serializations); they are re-rolled
	// and excluded from the detection denominator.
	Benign int
	// Unplaced counts mutation slots whose re-roll budget ran out before
	// a material, non-benign site was found.
	Unplaced int
	// SilentExamples carries up to four descriptions of silent faults.
	SilentExamples []string
}

// Detected sums the detection points: decode rejection, replay
// divergence, verification failure, and verified prefix salvage.
func (c Cell) Detected() int { return c.Decode + c.Replay + c.Verify + c.Prefix }

// tally counts one classified injection into the cell and reports
// whether it was material; inert and benign ones are re-rolled.
func (c *Cell) tally(out Outcome, detail string) bool {
	switch out {
	case OutcomeInert:
		return false
	case OutcomeBenign:
		c.Benign++
		return false
	case OutcomeDecode:
		c.Decode++
	case OutcomeReplay:
		c.Replay++
	case OutcomeVerify:
		c.Verify++
	case OutcomePrefix:
		c.Prefix++
	default:
		c.Silent++
		if len(c.SilentExamples) < 4 {
			c.SilentExamples = append(c.SilentExamples, detail)
		}
	}
	c.Injected++
	return true
}

// MetaResult is one metamorphic property's outcome at one matrix point.
type MetaResult struct {
	Workload string
	Cores    int
	Property string
	Err      string // empty on success
}

// Report is a complete conformance run's findings.
type Report struct {
	Config Config
	Cells  []Cell
	Meta   []MetaResult
}

// Injected totals placed material faults.
func (r *Report) Injected() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Injected
	}
	return n
}

// Detected totals faults caught at any detection point.
func (r *Report) Detected() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Detected()
	}
	return n
}

// Silent totals silent divergences — wrong executions accepted as
// correct.
func (r *Report) Silent() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Silent
	}
	return n
}

// MetaFailures lists the failed metamorphic properties.
func (r *Report) MetaFailures() []MetaResult {
	var out []MetaResult
	for _, m := range r.Meta {
		if m.Err != "" {
			out = append(out, m)
		}
	}
	return out
}

// OK reports conformance: no silent divergence, no metamorphic failure,
// and at least one material fault placed overall.
func (r *Report) OK() bool {
	return r.Silent() == 0 && len(r.MetaFailures()) == 0 && r.Injected() > 0
}

// String renders the triage report: the metamorphic summary, the
// per-cell coverage table, and the detection totals.
func (r *Report) String() string {
	var sb strings.Builder

	passed, failed := 0, 0
	for _, m := range r.Meta {
		if m.Err == "" {
			passed++
		} else {
			failed++
		}
	}
	if passed+failed > 0 {
		fmt.Fprintf(&sb, "Metamorphic properties: %d passed, %d failed\n", passed, failed)
		for _, m := range r.MetaFailures() {
			fmt.Fprintf(&sb, "  FAIL %s × %d cores: %s: %s\n", m.Workload, m.Cores, m.Property, m.Err)
		}
		sb.WriteString("\n")
	}

	t := report.Table{
		Title:   "Fault-injection coverage (single-fault log and stream corruptions)",
		Columns: []string{"workload", "cores", "fault", "injected", "decode", "replay", "verify", "prefix", "benign*", "silent"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Workload, fmt.Sprint(c.Cores), string(c.Class),
			fmt.Sprint(c.Injected), fmt.Sprint(c.Decode), fmt.Sprint(c.Replay),
			fmt.Sprint(c.Verify), fmt.Sprint(c.Prefix), fmt.Sprint(c.Benign),
			fmt.Sprint(c.Silent))
	}
	sb.WriteString(t.String())
	sb.WriteString("  *benign = mutation replayed to exactly the original execution (legal\n" +
		"   alternative serialization); re-rolled, excluded from the denominator.\n\n")

	inj, det, sil := r.Injected(), r.Detected(), r.Silent()
	rate := 0.0
	if inj > 0 {
		rate = float64(det) / float64(inj)
	}
	fmt.Fprintf(&sb, "Totals: %d material faults injected, %d detected (%.1f%%), %d silent\n",
		inj, det, rate*100, sil)
	for _, c := range r.Cells {
		for _, ex := range c.SilentExamples {
			fmt.Fprintf(&sb, "  SILENT %s × %d cores × %s: %s\n", c.Workload, c.Cores, c.Class, ex)
		}
	}
	if r.OK() {
		sb.WriteString("CONFORMANCE: PASS — every material fault was detected explicitly\n")
	} else {
		sb.WriteString("CONFORMANCE: FAIL\n")
	}
	return sb.String()
}
