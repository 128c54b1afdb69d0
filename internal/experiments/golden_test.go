package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figuresGolden holds the output of every deterministic experiment at
// quickbench's default flags, in quickbench's format.
var figuresGolden = filepath.Join("testdata", "figures.golden")

// hostTimed names the experiments whose output includes host timings,
// which differ from run to run.
var hostTimed = map[string]bool{"A8": true, "A10": true, "A11": true}

// TestFiguresGolden pins the modelled figures. Every table and figure
// that does not time the host must print exactly what the golden holds,
// so a change to the machine model, the logs or the codecs shows up as a
// diff of the golden. Regenerate with QUICKREC_WRITE_GOLDEN=1 when the
// model changes on purpose, and review the diff.
func TestFiguresGolden(t *testing.T) {
	cfg := Config{Threads: []int{1, 2, 4}, Seed: 1, Scale: 1, Seeds: 1}
	var buf bytes.Buffer
	for _, e := range All() {
		if hostTimed[e.ID] {
			continue
		}
		fmt.Fprintf(&buf, "=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(cfg, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		buf.WriteByte('\n')
	}
	got := buf.String()

	if os.Getenv("QUICKREC_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(figuresGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatalf("golden missing (QUICKREC_WRITE_GOLDEN=1 regenerates): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		g, w := lineAt(gotLines, i), lineAt(wantLines, i)
		if strings.HasPrefix(w, "=== ") {
			section = w
		}
		if g != w {
			t.Fatalf("figures differ from %s at line %d, in %s:\n got: %q\nwant: %q\n"+
				"(QUICKREC_WRITE_GOLDEN=1 rewrites it when the model changes on purpose)",
				figuresGolden, i+1, section, g, w)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}
