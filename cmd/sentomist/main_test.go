package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sentomist/internal/trace"
)

// runCLI runs the command line in-process and returns its exit code,
// stdout and stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// recordCaseII saves one Case-II run as a bare trace and as a bundle.
func recordCaseII(t *testing.T) (tracePath, bundlePath string) {
	t.Helper()
	dir := t.TempDir()
	tracePath, bundlePath = filepath.Join(dir, "run.trace"), filepath.Join(dir, "run.bundle")
	for _, args := range [][]string{
		{"record", "-case", "II", "-out", tracePath},
		{"record", "-case", "II", "-bundle", "-out", bundlePath},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		if !strings.Contains(stdout, "\nscheduler: ") {
			t.Fatalf("%v: no scheduler line in %q", args, stdout)
		}
	}
	return tracePath, bundlePath
}

func TestRankTraceAndBundleAgree(t *testing.T) {
	tracePath, bundlePath := recordCaseII(t)
	jsonPath := filepath.Join(t.TempDir(), "run.json")
	if code, _, stderr := runCLI("record", "-case", "II", "-out", jsonPath); code != 0 {
		t.Fatalf("record json: exit %d: %s", code, stderr)
	}
	code, want, stderr := runCLI("rank", "-irq", "4", "-nodes", "1", tracePath)
	if code != 0 {
		t.Fatalf("rank trace: exit %d: %s", code, stderr)
	}
	if !strings.Contains(want, "254 intervals") {
		t.Fatalf("unexpected ranking:\n%s", want)
	}
	for _, path := range []string{bundlePath, jsonPath} {
		code, got, stderr := runCLI("rank", "-irq", "4", "-nodes", "1", path)
		if code != 0 {
			t.Fatalf("rank %s: exit %d: %s", path, code, stderr)
		}
		if got != want {
			t.Fatalf("%s ranks differently from the bare trace:\n%s\nvs\n%s", path, got, want)
		}
	}
}

// TestRankOnlinePrintsDistinct: an online rank prints each refit's
// interval count with the distinct counters the solver iterated over, and
// the output is identical at miner parallelism 1 and 2.
func TestRankOnlinePrintsDistinct(t *testing.T) {
	tracePath, _ := recordCaseII(t)
	var outs []string
	for _, par := range []string{"1", "2"} {
		code, out, stderr := runCLI("rank", "-irq", "4", "-nodes", "1", "-online-refit", "1", "-parallelism", par, tracePath)
		if code != 0 {
			t.Fatalf("online rank -parallelism %s: exit %d: %s", par, code, stderr)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Fatalf("online rank differs between parallelism 1 and 2:\n%s\nvs\n%s", outs[0], outs[1])
	}
	// Case II's 254 intervals of the packet-receive event run 10 distinct
	// code paths.
	if !regexp.MustCompile(`(?m)^refit 1 irq 4 .*, 254 intervals \(10 distinct\), `).MatchString(outs[0]) {
		t.Fatalf("no refit line reporting 254 intervals (10 distinct):\n%s", outs[0])
	}
}

// TestRankNegativeTop: -top -1 prints no rows from the top, only the
// ellipsis and the -bottom rows, instead of panicking.
func TestRankNegativeTop(t *testing.T) {
	_, bundlePath := recordCaseII(t)
	code, stdout, stderr := runCLI("rank", "-irq", "4", "-nodes", "1", "-top", "-1", bundlePath)
	if code != 0 {
		t.Fatalf("rank -top -1: exit %d: %s", code, stderr)
	}
	_, table, _ := strings.Cut(stdout, "\n\n")
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "Instance") || !strings.HasPrefix(lines[1], "...") {
		t.Fatalf("want the header, an ellipsis and the two bottom rows:\n%s", stdout)
	}
}

func TestRankInspect(t *testing.T) {
	tracePath, bundlePath := recordCaseII(t)
	code, stdout, stderr := runCLI("rank", "-irq", "4", "-nodes", "1", "-inspect", "1", bundlePath)
	if code != 0 {
		t.Fatalf("inspect bundle: exit %d: %s", code, stderr)
	}
	if !regexp.MustCompile(`(?m)^fwd_drop:11[234] \*`).MatchString(stdout) {
		t.Fatalf("inspect report lacks the fwd_drop localization:\n%s", stdout)
	}
	code, _, stderr = runCLI("rank", "-irq", "4", "-nodes", "1", "-inspect", "1", tracePath)
	if code != 1 || !strings.Contains(stderr, "programs") {
		t.Fatalf("inspect on a bare trace: exit %d, stderr %q; want exit 1 naming the missing programs", code, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	tracePath, _ := recordCaseII(t)
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"rank", tracePath},
		{"rank", "-irq", "4", "-nodes", "1", "-online-irqs", "1", tracePath},
		{"rank", "-irq", "4", "-nodes", "1", "-online-topk", "3", tracePath},
		{"case", "-case", "IV"},
		// Detectors the ablation matrix showed earn no place are gone.
		{"rank", "-irq", "4", "-nodes", "1", "-detector", "knn", tracePath},
		{"rank", "-irq", "4", "-nodes", "1", "-detector", "kernel-pca", tracePath},
		// No command selects the scheduler.
		{"record", "-case", "II", "-out", tracePath, "-node-workers", "2"},
		{"bench", "-node-workers", "2"},
		{"experiments", "-node-workers", "2"},
		{"soak", "-node-workers", "2"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 || !strings.Contains(stderr, "usage: sentomist") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with usage", args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q to stdout on a usage error", args, stdout)
		}
	}
}

func TestAsmBuiltin(t *testing.T) {
	code, stdout, stderr := runCLI("asm", "-builtin", "caseII")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !regexp.MustCompile(`^caseII: \d+ instructions, \d+ vectors, \d+ tasks, \d+ variables, \d+ constants\n`).MatchString(stdout) {
		t.Fatalf("missing instruction summary:\n%s", stdout)
	}
}

// TestRankRejectsNegativeProgramLen: a trace file whose node claims a
// negative program length fails rank with an error (exit 1), not a panic.
func TestRankRejectsNegativeProgramLen(t *testing.T) {
	n := &trace.NodeTrace{NodeID: 1, ProgramLen: -5}
	for i := 0; i < 8; i++ {
		c := uint64(100 * (i + 1))
		n.Markers = append(n.Markers, trace.Marker{Kind: trace.Int, Arg: 1, Cycle: c}, trace.Marker{Kind: trace.Reti, Cycle: c + 50})
	}
	path := filepath.Join(t.TempDir(), "neg.trace")
	if err := (&trace.Trace{Seed: 1, Cycles: 1000, Nodes: []*trace.NodeTrace{n}}).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI("rank", "-irq", "1", path)
	if code != 1 || !strings.Contains(stderr, "program length") {
		t.Fatalf("rank on ProgramLen -5: exit %d, stderr %q; want exit 1 naming the program length", code, stderr)
	}
}
