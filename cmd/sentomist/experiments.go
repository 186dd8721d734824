package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"sentomist/internal/experiments"
)

// experimentsCmd regenerates every evaluation artifact of the paper in one
// run and prints a paper-vs-measured report — the executable counterpart
// of EXPERIMENTS.md.
func experimentsCmd(*flag.FlagSet) runFunc {
	return func(_ []string, stdout, _ io.Writer) error { return experimentsReport(stdout) }
}

func experimentsReport(w io.Writer) error {
	fmt.Fprintln(w, "Sentomist reproduction — every table and figure of the paper's evaluation")
	fmt.Fprintln(w, "==========================================================================")

	// E1–E3: the three Figure 5 rankings.
	c1, err := experiments.CaseI(experiments.CaseISeedBase)
	if err != nil {
		return err
	}
	printCase(w, c1, "paper: 1099 samples; top-3 inspected, all confirmed the pollution")

	c2, err := experiments.CaseII(experiments.CaseIISeed)
	if err != nil {
		return err
	}
	printCase(w, c2, "paper: 195 samples; exactly 3 busy-drops, ranked 1-3")

	c3, err := experiments.CaseIII(experiments.CaseIIISeed)
	if err != nil {
		return err
	}
	printCase(w, c3, "paper: 95 samples; FAIL trigger [8, 20] at rank 4")
	fmt.Fprintf(w, "  FAIL-trigger rank: %d\n\n", c3.TriggerRank)

	// E4: trace volume.
	vol, err := experiments.TraceVolume()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E4 — trace volume (Case I, D = 20 ms, 10 s)")
	fmt.Fprintf(w, "  paper: \"tens of megabytes\" of function-level logs\n")
	fmt.Fprintf(w, "  measured: %d bytes of lifecycle trace, %d markers, %d intervals to mine\n\n",
		vol.TraceBytes, vol.Markers, vol.Intervals)

	// E5: inspection effort.
	eff, err := experiments.InspectionEffort(experiments.CaseIISeed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E5 — inspection effort until the first true symptom (Case II)")
	fmt.Fprintf(w, "  Sentomist ranking:     %d interval(s)\n", eff.Sentomist)
	fmt.Fprintf(w, "  chronological scan:    %d\n", eff.Chronological)
	fmt.Fprintf(w, "  random scan (expected): %.1f\n\n", eff.RandomExp)

	// A1: detector ablation.
	fmt.Fprintln(w, "A1 — detector plug-ins (rank of first symptom, Case II)")
	detRows, err := experiments.DetectorAblation(experiments.CaseIISeed)
	if err != nil {
		return err
	}
	for _, r := range detRows {
		fmt.Fprintf(w, "  %-20s rank %d\n", r.Name, r.FirstSymptomRank)
	}
	fmt.Fprintln(w)

	// A2: feature ablation.
	fmt.Fprintln(w, "A2 — features (rank of first symptom, Case II)")
	featRows, err := experiments.FeatureAblation(experiments.CaseIISeed)
	if err != nil {
		return err
	}
	for _, r := range featRows {
		fmt.Fprintf(w, "  %-20s rank %-4d (%.0f dims)\n", r.Name, r.FirstSymptomRank, r.Extra)
	}
	fmt.Fprintln(w)

	// A3: kernel ablation.
	fmt.Fprintln(w, "A3 — kernels (rank of first symptom, Case I run 1)")
	kRows, err := experiments.KernelAblation(experiments.CaseISeedBase)
	if err != nil {
		return err
	}
	for _, r := range kRows {
		fmt.Fprintf(w, "  %-20s rank %d\n", r.Name, r.FirstSymptomRank)
	}
	fmt.Fprintln(w)

	// A4: Dustminer baseline.
	fmt.Fprintln(w, "A4 — Dustminer-style discriminative mining (top pattern score)")
	dRows, err := experiments.DustminerBaseline()
	if err != nil {
		return err
	}
	for _, r := range dRows {
		fmt.Fprintf(w, "  %-28s %.2f\n", r.Name, r.Extra)
	}
	fmt.Fprintln(w)

	// ν sensitivity.
	fmt.Fprintln(w, "nu sensitivity — rank of first busy-drop (Case II)")
	nuRows, err := experiments.NuSensitivity(experiments.CaseIISeed)
	if err != nil {
		return err
	}
	for _, r := range nuRows {
		fmt.Fprintf(w, "  %-10s rank %d\n", r.Name, r.FirstSymptomRank)
	}
	fmt.Fprintln(w)

	// E6: streaming campaign engine.
	fmt.Fprintln(w, "E6 — streaming campaign (online anatomize + feature, no materialized trace)")
	t0 := time.Now()
	samples, equal, err := experiments.CampaignEquivalence(experiments.CaseISeedBase)
	elapsed := time.Since(t0)
	if err != nil {
		return err
	}
	verdict := "IDENTICAL to the materialized pipeline"
	if !equal {
		verdict = "DIVERGED from the materialized pipeline"
	}
	fmt.Fprintf(w, "  Case I, %d runs both ways in %v: %d samples, ranking %s\n",
		len(experiments.CaseIPeriods), elapsed.Round(time.Millisecond), samples, verdict)
	if !equal {
		return fmt.Errorf("streaming campaign ranking diverged")
	}
	fmt.Fprintln(w)

	// E7: online incremental mining.
	fmt.Fprintln(w, "E7 — online incremental mining (exact delta refits, streaming top-K, content-addressed counter store, multi-IRQ)")
	t0 = time.Now()
	oSamples, oRefits, oConfigs, oEqual, err := experiments.OnlineEquivalence(experiments.CaseISeedBase)
	elapsed = time.Since(t0)
	if err != nil {
		return err
	}
	verdict = "bit-identical to the one-shot campaign"
	if !oEqual {
		verdict = "DIVERGED from the one-shot campaign"
	}
	fmt.Fprintf(w, "  Case I at %d worker/cadence/spill/IRQ configs in %v: %d samples, %d intermediate refits, finalized rankings %s\n",
		oConfigs, elapsed.Round(time.Millisecond), oSamples, oRefits, verdict)
	if !oEqual {
		return fmt.Errorf("online mining ranking diverged")
	}
	fmt.Fprintln(w)

	// E8: ranking quality over the seeded-bug corpus.
	fmt.Fprintln(w, "E8 — ranking quality over the Sentomist-bench corpus")
	fmt.Fprintln(w, "  paper: top-ranked intervals manually confirmed to contain the bug (Fig. 5)")
	t0 = time.Now()
	rep, err := experiments.RankingQuality()
	elapsed = time.Since(t0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  measured (%d seeded bugs, %v):\n\n", len(rep.Entries), elapsed.Round(time.Millisecond))
	fmt.Fprintln(w, indent(rep.Format(), "  "))

	// A5: simulator fidelity.
	pre, seqMode, err := experiments.SequentialAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "A5 — simulator fidelity (Figure-2 race triggers, Case I D = 20 ms)")
	fmt.Fprintf(w, "  preemptive (Avrora-like):  %d\n", pre)
	fmt.Fprintf(w, "  sequential (TOSSIM-like):  %d\n", seqMode)
	return nil
}

func printCase(w io.Writer, c *experiments.CaseResult, paperNote string) {
	fmt.Fprintf(w, "%s\n  %s\n", c.Name, paperNote)
	fmt.Fprintf(w, "  measured: %d samples, %d symptomatic, first at rank %d, %d/%d in the top ranks\n\n",
		c.Samples, c.Symptomatic, c.FirstSymptomRank, c.TopKHits, c.Symptomatic)
	fmt.Fprintln(w, indent(c.Table, "  "))
}

func indent(s, prefix string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if start < i {
				out += prefix + s[start:i]
			}
			if i < len(s) {
				out += "\n"
			}
			start = i + 1
		}
	}
	return out
}
