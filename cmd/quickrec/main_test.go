package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// buildCLI compiles the command once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "quickrec")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, wantOK bool, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if wantOK && err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	if !wantOK && err == nil {
		t.Fatalf("%v: expected failure, got:\n%s", args, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	recFile := filepath.Join(dir, "counter.qrec")

	// list
	out := runCLI(t, bin, true, "list")
	for _, w := range []string{"radix", "counter", "splash", "micro"} {
		if !strings.Contains(out, w) {
			t.Errorf("list missing %q:\n%s", w, out)
		}
	}

	// record
	out = runCLI(t, bin, true, "record", "-w", "counter", "-threads", "4", "-seed", "9", "-o", recFile)
	if !strings.Contains(out, "recorded counter") {
		t.Errorf("record output: %s", out)
	}

	// inspect
	out = runCLI(t, bin, true, "inspect", "-i", recFile)
	for _, w := range []string{"Per-thread logs", "termination reasons", "counter"} {
		if !strings.Contains(out, w) {
			t.Errorf("inspect missing %q:\n%s", w, out)
		}
	}

	// replay
	out = runCLI(t, bin, true, "replay", "-i", recFile)
	if !strings.Contains(out, "replayed counter") {
		t.Errorf("replay output: %s", out)
	}

	// verify
	out = runCLI(t, bin, true, "verify", "-i", recFile)
	if !strings.Contains(out, "verified") {
		t.Errorf("verify output: %s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	bin := buildCLI(t)
	runCLI(t, bin, false)                                          // no subcommand
	runCLI(t, bin, false, "frobnicate")                            // unknown subcommand
	runCLI(t, bin, false, "record", "-w", "counter")               // missing -o
	runCLI(t, bin, false, "record", "-w", "nope", "-o", "/tmp/x")  // unknown workload
	runCLI(t, bin, false, "replay", "-i", "/does/not/exist.qrec")  // missing file
	runCLI(t, bin, false, "inspect", "-i", "/does/not/exist.qrec") // missing file
}

func TestCLIVerifyDetectsTampering(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	recFile := filepath.Join(dir, "x.qrec")
	runCLI(t, bin, true, "record", "-w", "pingpong", "-threads", "2", "-o", recFile)

	// Truncate the file: loading must fail cleanly.
	trunc := filepath.Join(dir, "trunc.qrec")
	data := readFile(t, recFile)
	writeFile(t, trunc, data[:len(data)-3])
	runCLI(t, bin, false, "verify", "-i", trunc)
}

func TestCLIDebug(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	recFile := filepath.Join(dir, "c.qrec")
	runCLI(t, bin, true, "record", "-w", "counter", "-threads", "4", "-o", recFile)
	out := runCLI(t, bin, true, "debug", "-i", recFile, "-t", "1", "-n", "200")
	for _, w := range []string{"paused at PC", "Registers", "other threads"} {
		if !strings.Contains(out, w) {
			t.Errorf("debug output missing %q:\n%s", w, out)
		}
	}
	// Past-the-end breakpoint still reports final state.
	out = runCLI(t, bin, true, "debug", "-i", recFile, "-t", "0", "-n", "99999999")
	if !strings.Contains(out, "ended before") {
		t.Errorf("past-end debug output:\n%s", out)
	}
}

func TestCLIQasmProgram(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	src := `
.name clidemo
.threads 2
.alloc counter 1
        li   r3, @counter
        li   r4, 0
        li   r6, 1
loop:   fadd r7, [r3+0], r6
        addi r4, r4, 1
        li   r5, 100
        bne  r4, r5, loop
        halt
`
	qasmFile := filepath.Join(dir, "demo.qasm")
	writeFile(t, qasmFile, []byte(src))
	recFile := filepath.Join(dir, "demo.qrec")

	out := runCLI(t, bin, true, "record", "-prog", qasmFile, "-threads", "2", "-o", recFile)
	if !strings.Contains(out, "recorded clidemo") {
		t.Errorf("record output: %s", out)
	}
	out = runCLI(t, bin, true, "verify", "-prog", qasmFile, "-i", recFile)
	if !strings.Contains(out, "verified") {
		t.Errorf("verify output: %s", out)
	}
	out = runCLI(t, bin, true, "debug", "-prog", qasmFile, "-i", recFile, "-t", "1", "-n", "50", "-trace", "4")
	if !strings.Contains(out, "paused at PC") || !strings.Contains(out, "fadd") {
		t.Errorf("debug output: %s", out)
	}
	// Bad qasm fails cleanly.
	badFile := filepath.Join(dir, "bad.qasm")
	writeFile(t, badFile, []byte("frobnicate r1\n"))
	runCLI(t, bin, false, "record", "-prog", badFile, "-o", recFile)
	// A program that faults (here it runs off its end) fails with one
	// line naming the fault, not a Go stack trace.
	faultFile := filepath.Join(dir, "fault.qasm")
	writeFile(t, faultFile, []byte(".threads 1\nli r1, 5\n"))
	out = runCLI(t, bin, false, "record", "-prog", faultFile, "-threads", "1", "-o", recFile)
	if strings.Count(out, "\n") != 1 || !strings.Contains(out, "execution fault") {
		t.Errorf("faulting record output:\n%s", out)
	}
}

func TestCLIAnalyze(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	recFile := filepath.Join(dir, "a.qrec")
	runCLI(t, bin, true, "record", "-w", "radiosity", "-threads", "4", "-o", recFile)
	out := runCLI(t, bin, true, "analyze", "-i", recFile)
	for _, w := range []string{"recorded concurrency", "Per-thread behaviour", "termination reasons"} {
		if !strings.Contains(out, w) {
			t.Errorf("analyze missing %q:\n%s", w, out)
		}
	}
	runCLI(t, bin, false, "analyze", "-i", "/does/not/exist")
}
