package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"sentomist"
	"sentomist/internal/bench"
)

type rankOptions struct {
	rankFlags
	irq         int
	nodes       string
	parallelism int
	svmCacheMB  int
	onlineRefit int
	onlineTopK  int
	onlineIRQs  string
	spillDir    string
	inspect     int
}

// rankCmd is the offline back end of the pipeline: it loads saved traces
// or bundles and ranks their event-handling intervals with a chosen
// outlier detector. With -inspect K it performs the "manual inspection"
// step instead, printing everything a developer needs about the K-th
// ranked interval of one bundle.
func rankCmd(fs *flag.FlagSet) runFunc {
	var o rankOptions
	o.register(fs, 10)
	fs.IntVar(&o.irq, "irq", 0, "event type (interrupt number) to mine: 1=timer0, 2=timer1, 3=adc, 4=radio-rx, 5=txdone")
	fs.StringVar(&o.nodes, "nodes", "", "comma-separated node IDs to mine (empty = all nodes)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "worker pool for anatomize/feature and the SVM's kernel column fills (0 = GOMAXPROCS, 1 = sequential); the ranking is identical at any setting")
	fs.IntVar(&o.svmCacheMB, "svm-cache-mb", 0, "bound the SVM's kernel column cache to this many MiB (0 = the 256 MiB default); the ranking is bit-identical at any budget")
	fs.IntVar(&o.onlineRefit, "online-refit", 0, "rank as you go: refit the SVM every N ingested batches and print each intermediate top-K, each the head of the one-shot ranking over the batches so far; the final ranking is bit-identical to the one-shot path (svm detector only)")
	fs.IntVar(&o.onlineTopK, "online-topk", 10, "intermediate rankings keep the K most suspicious intervals (online mode only)")
	fs.StringVar(&o.onlineIRQs, "online-irqs", "", "comma-separated additional event types mined alongside -irq, one incremental solver each over the shared stream (online mode only); every refit prints one top-K per type")
	fs.StringVar(&o.spillDir, "spill-dir", "", "keep the intervals' metadata rows in a temporary file in this directory instead of in memory (implies online mode; results identical)")
	fs.IntVar(&o.inspect, "inspect", 0, "print the manual-inspection report of the K-th ranked interval (1 = most suspicious) instead of the table; needs exactly one bundle")
	return func(args []string, stdout, _ io.Writer) error {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		online := o.onlineRefit > 0 || o.spillDir != ""
		switch {
		case o.irq == 0 || len(args) == 0:
			return usagef("-irq and at least one trace or bundle are required")
		case !online && (set["online-irqs"] || set["online-topk"]):
			return usagef("-online-irqs and -online-topk need -online-refit or -spill-dir")
		case o.inspect != 0 && (online || len(args) != 1):
			return usagef("-inspect takes exactly one bundle and no online flags")
		}
		nodeIDs, err := parseInts("-nodes", o.nodes)
		if err != nil {
			return err
		}
		var (
			inputs []sentomist.RunInput
			stats  sentomist.SimStats
		)
		for _, path := range args {
			in, st, err := loadInput(path)
			if err != nil {
				return err
			}
			inputs, stats = append(inputs, in), st
		}
		if o.inspect != 0 && inputs[0].Programs == nil {
			return fmt.Errorf("-inspect needs the node programs, and %s is a bare trace; save a bundle with `sentomist record -bundle`", args[0])
		}
		cfg := sentomist.MineConfig{
			IRQ:         o.irq,
			Nodes:       nodeIDs,
			Labels:      sentomist.LabelRunSeq,
			Parallelism: o.parallelism,
		}
		if len(args) == 1 {
			cfg.Labels = sentomist.LabelNodeSeq
		}
		if online {
			return runOnline(stdout, o, inputs, cfg)
		}
		cfg.Detector, err = pickDetector(o.detector, o.nu, o.parallelism, int64(o.svmCacheMB)<<20)
		if err != nil {
			return err
		}
		ranking, err := sentomist.Mine(inputs, cfg)
		if err != nil {
			return err
		}
		if o.inspect != 0 {
			return inspect(stdout, inputs, stats, ranking, o.inspect)
		}
		fmt.Fprintf(stdout, "%d intervals (%d excluded as incomplete), %d dims, detector %s:\n\n",
			len(ranking.Samples), ranking.Excluded, ranking.Dim, ranking.Detector)
		fmt.Fprint(stdout, ranking.Table(o.top, o.bottom))
		return nil
	}
}

// runOnline is the rank-as-you-go path: traces become a batch stream, the
// online miner refits every -online-refit batches printing each
// intermediate top-K (the head of the one-shot ranking over the batches so
// far), and the final table comes from Finalize — bit-identical to the
// one-shot path over the same traces.
func runOnline(w io.Writer, o rankOptions, inputs []sentomist.RunInput, cfg sentomist.MineConfig) error {
	if strings.ToLower(o.detector) != "svm" {
		return fmt.Errorf("-online-refit drives the incremental one-class SVM; -detector %s is not supported online", o.detector)
	}
	if o.nu != 0.05 {
		return fmt.Errorf("online mining uses the default nu = 0.05; -nu cannot be changed")
	}
	extraIRQs, err := parseInts("-online-irqs", o.onlineIRQs)
	if err != nil {
		return err
	}
	cfg.SVMCacheBytes = int64(o.svmCacheMB) << 20
	batches, err := sentomist.ExtractBatchesFor(inputs, cfg, append([]int{o.irq}, extraIRQs...)...)
	if err != nil {
		return err
	}
	miner, err := sentomist.NewOnlineMiner(sentomist.OnlineMineConfig{
		Config:     cfg,
		IRQs:       extraIRQs,
		RefitEvery: o.onlineRefit,
		TopK:       o.onlineTopK,
		SpillDir:   o.spillDir,
		OnRanking:  func(r *sentomist.OnlineRanking) { printOnlineRanking(w, r) },
	})
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := miner.Add(b); err != nil {
			miner.Close()
			return err
		}
	}
	if len(extraIRQs) == 0 {
		ranking, err := miner.Finalize()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nfinal: %d intervals (%d excluded as incomplete), %d dims, detector %s:\n\n",
			len(ranking.Samples), ranking.Excluded, ranking.Dim, ranking.Detector)
		fmt.Fprint(w, ranking.Table(o.top, o.bottom))
		return nil
	}
	irqs := miner.IRQs()
	all, err := miner.FinalizeAll()
	if err != nil {
		return err
	}
	for _, irq := range irqs {
		ranking := all[irq]
		if ranking == nil {
			fmt.Fprintf(w, "\nfinal irq %d: no complete intervals\n", irq)
			continue
		}
		fmt.Fprintf(w, "\nfinal irq %d: %d intervals (%d excluded as incomplete), %d dims, detector %s:\n\n",
			irq, len(ranking.Samples), ranking.Excluded, ranking.Dim, ranking.Detector)
		fmt.Fprint(w, ranking.Table(o.top, o.bottom))
	}
	return nil
}

// printOnlineRanking prints one intermediate refit: whether the scale
// bounds held since the previous refit (only new distinct counters scaled)
// or moved (all rescaled, the kernel cache rebuilt), the solver
// diagnostics, the row-file size, and the top-K table.
func printOnlineRanking(w io.Writer, r *sentomist.OnlineRanking) {
	scale := "moved"
	if r.Delta {
		scale = "stable"
	}
	if r.Rebuilt {
		scale += "+rebuilt-cache"
	}
	fmt.Fprintf(w, "refit %d irq %d (scale %s): %d batches, %d intervals (%d distinct), %d iters",
		r.Refit, r.IRQ, scale, r.Batches, r.Total, r.Groups, r.Iters)
	if r.SpilledBytes > 0 {
		fmt.Fprintf(w, "; spill %d bytes", r.SpilledBytes)
	}
	fmt.Fprintf(w, " — top %d:\n", len(r.Samples))
	for i, s := range r.Samples {
		fmt.Fprintf(w, "  #%-3d run %d seq %d node %d  score %.6f\n",
			i+1, s.Run, s.Interval.Seq, s.Interval.Node, s.Score)
	}
}

// inspect prints the manual-inspection report of the k-th ranked interval
// of one bundle: its lifecycle window, per-function instruction counts,
// annotated disassembly, and the symptom-to-source localization over the
// whole ranking.
func inspect(w io.Writer, inputs []sentomist.RunInput, stats sentomist.SimStats, ranking *sentomist.Ranking, k int) error {
	if k < 1 || k > len(ranking.Samples) {
		return fmt.Errorf("rank %d outside 1..%d", k, len(ranking.Samples))
	}
	if stats != (sentomist.SimStats{}) {
		printSchedStats(w, "record-phase scheduler", stats)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%d intervals mined; ranking head:\n\n%s\n", len(ranking.Samples), ranking.Table(5, 0))
	s := ranking.Samples[k-1]
	tr, prog := inputs[0].Trace, inputs[0].Programs[s.Interval.Node]

	desc, err := sentomist.DescribeInterval(tr, s.Interval)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== rank %d: interval %s, node %d, %d µs, score %.4f ===\n\nlifecycle window:\n  %s\n",
		k, s.Label(sentomist.LabelNodeSeq), s.Interval.Node, s.Interval.Duration(), s.Score, desc)

	counts, err := sentomist.SymbolCounts(tr, prog, s.Interval)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nper-function instruction counts:")
	for _, sc := range counts {
		fmt.Fprintf(w, "  %-18s %8d\n", sc.Symbol, sc.Count)
	}

	listing, err := sentomist.AnnotatedListing(tr, prog, s.Interval)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nannotated listing (executed instructions only):\n%s", listing)

	suspicions, err := sentomist.Localize(inputs, ranking, prog, sentomist.LocalizeConfig{MaxResults: 8})
	if err != nil {
		fmt.Fprintf(w, "\n(localization unavailable: %v)\n", err)
		return nil
	}
	fmt.Fprintf(w, "\nsymptom-to-source localization over the whole ranking:\n%s", sentomist.LocalizeReport(suspicions))
	return nil
}

// benchCmd evaluates the Sentomist-bench seeded-bug corpus, prints the
// ranking-quality report, and optionally gates it against (or
// regenerates) the checked-in baseline.
func benchCmd(fs *flag.FlagSet) runFunc {
	baseline := fs.String("baseline", "", "compare the report against this JSON baseline and exit nonzero on any difference")
	update := fs.String("update", "", "write the report to this JSON baseline file")
	return func(_ []string, stdout, stderr io.Writer) error {
		rep, err := bench.EvaluateAll(bench.Catalog())
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.Format())
		if *update != "" {
			if err := bench.WriteBaseline(rep, *update); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nbaseline written to %s\n", *update)
		}
		if *baseline != "" {
			want, err := bench.LoadBaseline(*baseline)
			if err != nil {
				return err
			}
			if diffs := bench.Compare(rep, want); len(diffs) > 0 {
				fmt.Fprintf(stderr, "\nranking quality diverged from %s:\n", *baseline)
				for _, d := range diffs {
					fmt.Fprintln(stderr, "  "+d)
				}
				return fmt.Errorf("%d difference(s) against the baseline (regenerate deliberately with -update)", len(diffs))
			}
			fmt.Fprintf(stdout, "\nbaseline %s: match\n", *baseline)
		}
		return nil
	}
}
