// Command inspect performs the "manual inspection" step of the Sentomist
// workflow offline: it loads a saved run bundle, mines an event type, and
// prints everything a developer needs about one ranked interval — its
// lifecycle window, its per-function instruction counts, its annotated
// disassembly, and the symptom-to-source localization over the whole
// ranking.
//
// Usage:
//
//	tracegen -case II -bundle run.bundle        # produce the bundle
//	inspect -irq 4 -nodes 1 run.bundle          # inspect rank 1
//	inspect -irq 4 -nodes 1 -rank 3 run.bundle
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sentomist"
)

func main() {
	var (
		irq   = flag.Int("irq", 0, "event type (interrupt number) to mine")
		nodes = flag.String("nodes", "", "comma-separated node IDs to mine (empty = all)")
		rank  = flag.Int("rank", 1, "which ranked interval to inspect (1 = most suspicious)")
		nu    = flag.Float64("nu", 0.05, "one-class SVM nu parameter")
	)
	flag.Parse()
	if *irq == 0 || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "inspect: usage: inspect -irq N [-nodes 1,2] [-rank K] run.bundle")
		os.Exit(2)
	}
	if err := run(*irq, *nodes, *rank, *nu, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}
}

func run(irq int, nodesCSV string, rank int, nu float64, path string) error {
	b, err := sentomist.LoadBundle(path)
	if err != nil {
		return err
	}
	var nodeIDs []int
	if nodesCSV != "" {
		for _, part := range strings.Split(nodesCSV, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad node id %q: %w", part, err)
			}
			nodeIDs = append(nodeIDs, id)
		}
	}
	inputs := []sentomist.RunInput{{Trace: b.Trace, Programs: b.Programs}}
	ranking, err := sentomist.Mine(inputs, sentomist.MineConfig{
		IRQ:      irq,
		Nodes:    nodeIDs,
		Detector: sentomist.OneClassSVM(nu, nil),
		Labels:   sentomist.LabelNodeSeq,
	})
	if err != nil {
		return err
	}
	if rank < 1 || rank > len(ranking.Samples) {
		return fmt.Errorf("rank %d outside 1..%d", rank, len(ranking.Samples))
	}

	if b.Stats != (sentomist.SimStats{}) {
		st := b.Stats
		fmt.Printf("record-phase scheduler: %d rounds, %d solo jumps, %d idle jumps, %d parallel sections (%d advances, %d staged events)\n",
			st.Rounds, st.SoloJumps, st.IdleJumps,
			st.ParallelSections, st.ParallelAdvances, st.StagedEvents)
		fmt.Println()
	}
	fmt.Printf("%d intervals mined; ranking head:\n\n%s\n", len(ranking.Samples), ranking.Table(5, 0))
	s := ranking.Samples[rank-1]
	prog := b.Programs[s.Interval.Node]

	desc, err := sentomist.DescribeInterval(b.Trace, s.Interval)
	if err != nil {
		return err
	}
	fmt.Printf("=== rank %d: interval %s, node %d, %d µs, score %.4f ===\n\nlifecycle window:\n  %s\n",
		rank, s.Label(sentomist.LabelNodeSeq), s.Interval.Node, s.Interval.Duration(), s.Score, desc)

	counts, err := sentomist.SymbolCounts(b.Trace, prog, s.Interval)
	if err != nil {
		return err
	}
	fmt.Println("\nper-function instruction counts:")
	for _, sc := range counts {
		fmt.Printf("  %-18s %8d\n", sc.Symbol, sc.Count)
	}

	listing, err := sentomist.AnnotatedListing(b.Trace, prog, s.Interval)
	if err != nil {
		return err
	}
	fmt.Printf("\nannotated listing (executed instructions only):\n%s", listing)

	suspicions, err := sentomist.Localize(inputs, ranking, prog, sentomist.LocalizeConfig{MaxResults: 8})
	if err != nil {
		fmt.Printf("\n(localization unavailable: %v)\n", err)
		return nil
	}
	fmt.Printf("\nsymptom-to-source localization over the whole ranking:\n%s", sentomist.LocalizeReport(suspicions))
	return nil
}
