// Command sentomist is the Sentomist pipeline at the command line: record
// a lifecycle trace in the emulator, anatomize, feature and rank its
// event-handling intervals with the one-class ν-SVM, and inspect the top
// intervals by hand (the paper's §V–VI and Figure 5).
//
// Usage:
//
//	sentomist case -case II -localize                  # record + rank in one go
//	sentomist record -case II -bundle -out run.bundle  # save a run for offline analysis
//	sentomist rank -irq 4 -nodes 1 run.bundle          # rank saved traces or bundles
//	sentomist rank -irq 4 -nodes 1 -inspect 1 run.bundle
//	sentomist bench -baseline BENCH_QUALITY.json       # seeded-bug corpus quality gate
//	sentomist soak -runs 200                           # randomized cross-checks
//	sentomist experiments                              # every evaluation artifact
//	sentomist asm -builtin caseII -d                   # SVM-8 assembler diagnostics
//
// Every subcommand also takes -cpuprofile, -memprofile and -trace:
//
//	sentomist rank -irq 4 -cpuprofile cpu.pprof run.trace
//	go tool pprof cpu.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"

	"sentomist"
)

// runFunc is a subcommand body: it runs on the positional arguments left
// after flag parsing.
type runFunc func(args []string, stdout, stderr io.Writer) error

type command struct {
	name, args, summary string
	// setup registers the subcommand's flags and returns its body.
	setup func(fs *flag.FlagSet) runFunc
}

var commands = []command{
	{"case", "[-case I|II|III] [flags]", "run a case study end to end and print its ranking (Figure 5)", caseCmd},
	{"record", "-case I|II|III -out FILE [-bundle] [flags]", "run a case study and save its trace or bundle for offline analysis", recordCmd},
	{"rank", "-irq N [-nodes 1,2] [-inspect K] FILE [FILE...]", "rank saved traces or bundles offline; -inspect K reports one interval", rankCmd},
	{"bench", "[-baseline FILE] [-update FILE]", "score the Sentomist-bench seeded-bug corpus (precision@k, MRR)", benchCmd},
	{"soak", "[-runs N] [flags]", "cross-check the emulator and the analyzer on random scenarios", soakCmd},
	{"experiments", "[flags]", "regenerate every evaluation artifact of the paper", experimentsCmd},
	{"asm", "[-d] FILE.s | -builtin NAME", "assemble an SVM-8 program and print its statistics", asmCmd},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to a subcommand and returns the exit code: 0 on
// success, 1 on a failed run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var cmd *command
	for i := range commands {
		if len(args) > 0 && commands[i].name == args[0] {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		if len(args) > 0 {
			fmt.Fprintf(stderr, "sentomist: unknown subcommand %q\n\n", args[0])
		}
		fmt.Fprintln(stderr, "usage: sentomist SUBCOMMAND [flags] [args]\n\nsubcommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
		}
		fmt.Fprintln(stderr, "\nRun 'sentomist SUBCOMMAND -h' for its flags.")
		return 2
	}
	fs := flag.NewFlagSet("sentomist "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sentomist %s %s\n\nflags:\n", cmd.name, cmd.args)
		fs.PrintDefaults()
	}
	var prof profiling
	prof.register(fs)
	body := cmd.setup(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := prof.start(stderr)
	if err == nil {
		err = body(fs.Args(), stdout, stderr)
		stop()
	}
	if err != nil {
		fmt.Fprintf(stderr, "sentomist %s: %v\n", cmd.name, err)
		if errors.As(err, new(usageError)) {
			fs.Usage()
			return 2
		}
		return 1
	}
	return 0
}

// usageError marks a bad invocation (exit 2 with the subcommand's usage)
// as opposed to a failed run (exit 1).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, a ...any) error { return usageError{fmt.Sprintf(format, a...)} }

// profiling is the opt-in -cpuprofile/-memprofile/-trace block every
// subcommand carries, for capturing emulation- or mining-phase profiles
// without rebuilding with instrumentation.
type profiling struct{ cpu, mem, exec string }

func (p *profiling) register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this file on exit")
	fs.StringVar(&p.exec, "trace", "", "write a runtime execution trace to this file")
}

// start begins CPU profiling and execution tracing if requested and
// returns a function that stops them and writes the heap profile.
func (p *profiling) start(stderr io.Writer) (func(), error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if p.exec != "" {
		f, err := os.Create(p.exec)
		if err != nil {
			stop()
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, fmt.Errorf("trace: %w", err)
		}
		stops = append(stops, func() {
			rtrace.Stop()
			f.Close()
		})
	}
	return func() {
		stop()
		if p.mem == "" {
			return
		}
		f, err := os.Create(p.mem)
		if err != nil {
			fmt.Fprintln(stderr, "memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "memprofile:", err)
		}
	}, nil
}

// rankFlags are the ranking flags case and rank share.
type rankFlags struct {
	detector    string
	nu          float64
	top, bottom int
}

func (r *rankFlags) register(fs *flag.FlagSet, top int) {
	fs.StringVar(&r.detector, "detector", "svm", "outlier detector: svm (the paper's one-class SVM), pca, mahalanobis")
	fs.Float64Var(&r.nu, "nu", 0.05, "one-class SVM nu parameter")
	fs.IntVar(&r.top, "top", top, "ranking rows to print from the top")
	fs.IntVar(&r.bottom, "bottom", 2, "ranking rows to print from the bottom")
}

// pickDetector resolves -detector. parallelism and cacheBytes configure
// the one-class SVM's kernel column cache; the ranking is identical at any
// setting.
func pickDetector(name string, nu float64, parallelism int, cacheBytes int64) (sentomist.Detector, error) {
	switch strings.ToLower(name) {
	case "svm":
		return sentomist.SVMDetector{Nu: nu, Parallelism: parallelism, CacheBytes: cacheBytes}, nil
	case "pca":
		return sentomist.PCADetector(0), nil
	case "mahalanobis":
		return sentomist.MahalanobisDetector(), nil
	}
	return nil, usagef("unknown detector %q (want svm, pca or mahalanobis)", name)
}

// parseInts parses the comma-separated integer list of flag name; empty
// means none.
func parseInts(name, csv string) ([]int, error) {
	if csv == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", name, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// loadInput reads one trace or bundle file. A bundle is recognized by its
// SENTBDL1 magic and also yields the node programs (which -inspect needs)
// and the recording scheduler's counters; anything else loads as a
// SENTTRC1 trace, or as JSON for a .json path.
func loadInput(path string) (sentomist.RunInput, sentomist.SimStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return sentomist.RunInput{}, sentomist.SimStats{}, err
	}
	head := make([]byte, len("SENTBDL1"))
	io.ReadFull(f, head) // a short file is left to the trace reader's error
	f.Close()
	if string(head) == "SENTBDL1" {
		b, err := sentomist.LoadBundle(path)
		if err != nil {
			return sentomist.RunInput{}, sentomist.SimStats{}, err
		}
		return sentomist.RunInput{Trace: b.Trace, Programs: b.Programs}, b.Stats, nil
	}
	t, err := sentomist.LoadTrace(path)
	return sentomist.RunInput{Trace: t}, sentomist.SimStats{}, err
}

// printSchedStats prints the recording scheduler's counters.
func printSchedStats(w io.Writer, label string, st sentomist.SimStats) {
	fmt.Fprintf(w, "%s: %d rounds, %d solo jumps, %d idle jumps, %d parallel sections (%d advances, %d staged events)\n",
		label, st.Rounds, st.SoloJumps, st.IdleJumps,
		st.ParallelSections, st.ParallelAdvances, st.StagedEvents)
}
