// Command tracegen runs a case-study simulation and saves its lifecycle
// trace for later offline analysis with cmd/rank.
//
// Usage:
//
//	tracegen -case II -out run.trace [-seconds 20] [-seed 7] [-fixed] [-json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sentomist"
)

func main() {
	var (
		study    = flag.String("case", "I", "case study: I, II, or III")
		out      = flag.String("out", "", "output path (required; .json selects JSON)")
		seconds  = flag.Float64("seconds", 0, "run length in simulated seconds (0 = default)")
		seed     = flag.Uint64("seed", 0, "random seed (0 = the experiment default)")
		fixed    = flag.Bool("fixed", false, "run the bug-fixed variant")
		period   = flag.Int("period", 20, "case I: sampling period in ms")
		asBundle = flag.Bool("bundle", false, "save a full run bundle (trace + programs) instead of a bare trace")
		workers  = flag.Int("node-workers", 0, "emulator-side parallelism (sim.Config.ParallelNodes); the saved trace is byte-identical at any setting (<= 1 = sequential)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -out is required")
		os.Exit(2)
	}
	if err := run(*study, *out, *seconds, *seed, *fixed, *period, *asBundle, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(study, out string, seconds float64, seed uint64, fixed bool, period int, asBundle bool, workers int) error {
	var (
		r   *sentomist.Run
		err error
	)
	switch strings.ToUpper(study) {
	case "I", "1":
		if seconds == 0 {
			seconds = 10
		}
		if seed == 0 {
			seed = 100
		}
		r, err = sentomist.RunCaseI(sentomist.CaseIConfig{
			PeriodMS: period, Seconds: seconds, Seed: seed, Fixed: fixed,
			NodeWorkers: workers,
		})
	case "II", "2":
		if seconds == 0 {
			seconds = 20
		}
		if seed == 0 {
			seed = 7
		}
		r, err = sentomist.RunCaseII(sentomist.CaseIIConfig{
			Seconds: seconds, Seed: seed, Fixed: fixed, NodeWorkers: workers,
		})
	case "III", "3":
		if seconds == 0 {
			seconds = 15
		}
		if seed == 0 {
			seed = 20
		}
		r, err = sentomist.RunCaseIII(sentomist.CaseIIIConfig{
			Seconds: seconds, Seed: seed, Fixed: fixed, NodeWorkers: workers,
		})
	default:
		return fmt.Errorf("unknown case study %q", study)
	}
	if err != nil {
		return err
	}
	if asBundle {
		if err := sentomist.SaveBundle(r, out); err != nil {
			return err
		}
	} else if err := sentomist.SaveTrace(r.Trace, out); err != nil {
		return err
	}
	markers := 0
	for _, nt := range r.Trace.Nodes {
		markers += len(nt.Markers)
	}
	fmt.Printf("wrote %s: %d nodes, %d markers, ~%d bytes uncompressed\n",
		out, len(r.Trace.Nodes), markers, r.Trace.SizeBytes())
	if workers > 1 {
		st := r.Stats
		fmt.Printf("scheduler: %d rounds, %d solo jumps, %d idle jumps, %d parallel sections (%d advances, %d staged events)\n",
			st.Rounds, st.SoloJumps, st.IdleJumps,
			st.ParallelSections, st.ParallelAdvances, st.StagedEvents)
	}
	return nil
}
