package sentomist_test

// The benchmark harness regenerates every evaluation artifact of the paper
// (see DESIGN.md's per-experiment index) through internal/experiments — the
// same code path behind `sentomist experiments` and the numbers in EXPERIMENTS.md.
// Each benchmark runs the full pipeline (simulate, anatomize, feature,
// detect, rank) and reports the paper-relevant quantities as custom
// metrics:
//
//	rank_first_symptom   rank of the first true-bug interval (1 = best)
//	symptomatic          number of ground-truth symptomatic intervals
//	samples              intervals mined
//	top_k_hits           symptomatic intervals inside the top k
//
// Run with: go test -bench=. -benchmem
//
// The ranking tables themselves (the shape of Figure 5) print once per
// benchmark.

import (
	"fmt"
	"sync"
	"testing"

	"sentomist"
	"sentomist/internal/experiments"
	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
	"sentomist/internal/synth"
)

var printOnce sync.Map

func printCaseTable(res *experiments.CaseResult) {
	if _, loaded := printOnce.LoadOrStore(res.Name, true); loaded {
		return
	}
	fmt.Printf("\n--- %s (%d samples) ---\n%s\n", res.Name, res.Samples, res.Table)
}

func reportCase(b *testing.B, res *experiments.CaseResult) {
	b.Helper()
	b.ReportMetric(float64(res.Samples), "samples")
	b.ReportMetric(float64(res.Symptomatic), "symptomatic")
	b.ReportMetric(float64(res.FirstSymptomRank), "rank_first_symptom")
	b.ReportMetric(float64(res.TopKHits), "top_k_hits")
	printCaseTable(res)
}

// BenchmarkFig5aCaseI — E1: the Figure 5(a) ranking. Five pooled runs
// (D = 20..100 ms, 10 s each); the data-pollution intervals must hold the
// top ranks, all from the D = 20 ms run, as in the paper.
func BenchmarkFig5aCaseI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseI(experiments.CaseISeedBase)
		if err != nil {
			b.Fatal(err)
		}
		reportCase(b, res)
	}
}

// BenchmarkFig5bCaseII — E2: the Figure 5(b) ranking. One 20-second
// three-node forwarding run; the busy-drop intervals (the paper found
// exactly 3 of 195) must occupy the top ranks.
func BenchmarkFig5bCaseII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseII(experiments.CaseIISeed)
		if err != nil {
			b.Fatal(err)
		}
		reportCase(b, res)
	}
}

// BenchmarkFig5cCaseIII — E3: the Figure 5(c) ranking. One 15-second
// nine-node run; the unhandled-FAIL interval (the paper's [8, 20], rank 4)
// must land within the top 5.
func BenchmarkFig5cCaseIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseIII(experiments.CaseIIISeed)
		if err != nil {
			b.Fatal(err)
		}
		reportCase(b, res)
		b.ReportMetric(float64(res.TriggerRank), "rank_fail_trigger")
	}
}

// BenchmarkTraceVolume — E4: trace volume at D = 20 ms. The paper reports
// "tens of megabytes" of function-level logs per run; Sentomist's
// anatomized trace is orders of magnitude smaller and collapses to a few
// hundred intervals to inspect.
func BenchmarkTraceVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vol, err := experiments.TraceVolume()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(vol.TraceBytes), "trace_bytes")
		b.ReportMetric(float64(vol.Markers), "markers")
		b.ReportMetric(float64(vol.Intervals), "intervals")
	}
}

// BenchmarkInspectionEffort — E5: human-effort saving. Compares the number
// of intervals inspected until the first true symptom under (a) Sentomist's
// ranking, (b) chronological scanning, (c) expected uniform-random
// scanning — the brute-force baselines of the paper's Section VI.
func BenchmarkInspectionEffort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eff, err := experiments.InspectionEffort(experiments.CaseIISeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(eff.Sentomist), "sentomist_inspections")
		b.ReportMetric(float64(eff.Chronological), "chronological_inspections")
		b.ReportMetric(eff.RandomExp, "random_inspections")
	}
}

// BenchmarkAblationMatrix — A1–A3: every Sentomist-bench entry mined by
// each arm of bench.Arms (the detector plug-ins the paper's Section VI-E
// anticipates, the cruder features of Section V-B, and the linear kernel
// of Section V-C2), reported as each arm's mean reciprocal rank over the
// corpus. internal/bench/testdata/ablation_matrix.golden pins every cell.
func BenchmarkAblationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.AblationMatrix()
		if err != nil {
			b.Fatal(err)
		}
		for j, arm := range m.Arms {
			var rr float64
			for _, row := range m.Cells {
				rr += 1 / float64(row[j].FirstRank)
			}
			b.ReportMetric(rr/float64(len(m.Cells)), "mrr_"+metricName(arm))
		}
	}
}

// BenchmarkDustminerBaseline — A4: the Dustminer-style discriminative
// n-gram miner, given ground-truth labels (the manual effort Sentomist
// removes). On Case I the pollution IS a lifecycle pattern and the miner
// scores 1.0; on Case II the bug is invisible at item granularity and the
// top score is 0.
func BenchmarkDustminerBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DustminerBaseline()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Extra, "score_"+metricName(r.Name))
		}
	}
}

// BenchmarkSequentialSimAblation — A5: the paper's Section VI-E argument
// for cycle-accurate emulation. Under TOSSIM-like sequential event
// execution the Figure-2 race cannot even be triggered.
func BenchmarkSequentialSimAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pre, seq, err := experiments.SequentialAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pre), "race_triggers_preemptive")
		b.ReportMetric(float64(seq), "race_triggers_sequential")
	}
}

// BenchmarkNuSensitivity sweeps the SVM's ν on Case II: the busy-drop must
// stay at the head of the ranking across an order of magnitude of ν,
// showing the default is not a tuned constant.
func BenchmarkNuSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NuSensitivity(experiments.CaseIISeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.FirstSymptomRank), "rank_"+metricName(r.Name))
		}
	}
}

// BenchmarkSubstrate measures the simulator itself: simulated-vs-host time
// for the heaviest scenario (nine nodes, 15 s of CSMA traffic).
func BenchmarkSubstrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := sentomist.RunCaseIII(sentomist.CaseIIIConfig{Seconds: 15, Seed: 20})
		if err != nil {
			b.Fatal(err)
		}
		markers := 0
		for _, nt := range run.Trace.Nodes {
			markers += len(nt.Markers)
		}
		b.ReportMetric(float64(markers), "markers")
	}
}

// BenchmarkIntervalExtraction measures the Figure-4 algorithm in isolation
// over a pre-generated Case-I trace.
func BenchmarkIntervalExtraction(b *testing.B) {
	run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: 20, Seconds: 10, Seed: 100})
	if err != nil {
		b.Fatal(err)
	}
	nt := run.Trace.Node(sentomist.CaseISensorID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ivs, err := lifecycle.NewSequence(nt).Extract()
		if err != nil {
			b.Fatal(err)
		}
		if len(ivs) == 0 {
			b.Fatal("no intervals")
		}
	}
}

// BenchmarkOneClassSVM measures detector training+scoring on the pooled
// Case-I feature matrix (~1100 x ~70) through the whole Mine pipeline.
func BenchmarkOneClassSVM(b *testing.B) {
	var inputs []sentomist.RunInput
	for i, d := range []int{20, 40, 60, 80, 100} {
		run, err := sentomist.RunCaseI(sentomist.CaseIConfig{
			PeriodMS: d, Seconds: 10, Seed: uint64(experiments.CaseISeedBase + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, sentomist.RunInput{Trace: run.Trace, Programs: run.Programs})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sentomist.Mine(inputs, sentomist.MineConfig{
			IRQ:   sentomist.IRQADC,
			Nodes: []int{sentomist.CaseISensorID},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// metricName flattens a variant label into a metric-safe suffix.
func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ' || r == '-':
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkScalability measures substrate throughput against fleet size:
// randomized multi-node scenarios (radio traffic, task chains, fuzzing) of
// 2..16 nodes, one simulated second each. ns/op grows roughly linearly
// with active nodes; idle fast-forwarding keeps the constant small.
func BenchmarkScalability(b *testing.B) {
	for _, nodes := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("nodes_%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := synth.Generate(synth.Config{
					Seed:       uint64(i) + 1,
					ExactNodes: nodes,
					Seconds:    1,
				})
				if err != nil {
					b.Fatal(err)
				}
				markers := 0
				for _, nt := range run.Trace.Nodes {
					markers += len(nt.Markers)
				}
				b.ReportMetric(float64(markers), "markers")
			}
		})
	}
}

// caseIPooledInputs simulates the five canonical Case-I runs once, the
// workload BenchmarkMine and BenchmarkSVMTrain mine repeatedly.
func caseIPooledInputs(b *testing.B) []sentomist.RunInput {
	b.Helper()
	var inputs []sentomist.RunInput
	for i, d := range []int{20, 40, 60, 80, 100} {
		run, err := sentomist.RunCaseI(sentomist.CaseIConfig{
			PeriodMS: d, Seconds: 10, Seed: uint64(experiments.CaseISeedBase + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, sentomist.RunInput{Trace: run.Trace, Programs: run.Programs})
	}
	return inputs
}

// BenchmarkMine compares the mining engine's configurations on the pooled
// Case-I workload (simulation excluded): the dense baseline (denseMine, at
// sequential and parallel Gram construction) against the sparse Mine
// pipeline. Rankings are identical across all variants (see
// TestMineSparseParallelEquivalence); only the cost differs.
func BenchmarkMine(b *testing.B) {
	inputs := caseIPooledInputs(b)
	cfg := sentomist.MineConfig{IRQ: sentomist.IRQADC, Nodes: []int{sentomist.CaseISensorID}}
	dense := func(svmParallelism int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				denseMine(b, inputs, cfg, outlier.OneClassSVM{Parallelism: svmParallelism})
			}
		}
	}
	sparse := func(parallelism int, det sentomist.Detector) func(b *testing.B) {
		return func(b *testing.B) {
			c := cfg
			c.Parallelism = parallelism
			c.Detector = det
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := sentomist.Mine(inputs, c)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Samples) == 0 {
					b.Fatal("empty ranking")
				}
			}
		}
	}
	b.Run("dense_sequential", dense(1))
	b.Run("dense_parallel", dense(0))
	b.Run("sparse_sequential", sparse(1, outlier.OneClassSVM{Parallelism: 1}))
	b.Run("sparse_parallel", sparse(0, nil))
}

// pooledCounters extracts the scaled Case-I sparse counters.
func pooledCounters(b *testing.B, inputs []sentomist.RunInput) []stats.Sparse {
	b.Helper()
	var sparse []stats.Sparse
	for _, in := range inputs {
		ext := feature.NewExtractor(in.Trace)
		nt := in.Trace.Node(sentomist.CaseISensorID)
		ivs, err := lifecycle.NewSequence(nt).Extract()
		if err != nil {
			b.Fatal(err)
		}
		for _, iv := range ivs {
			if iv.IRQ != sentomist.IRQADC || !iv.Complete {
				continue
			}
			sv, err := ext.CounterSparse(iv)
			if err != nil {
				b.Fatal(err)
			}
			sparse = append(sparse, sv)
		}
	}
	feature.Scale01Sparse(sparse)
	return sparse
}

// BenchmarkSVMTrain isolates detector training on the pooled Case-I
// counters, with sequential and parallel kernel column fills. Training
// includes the Gram-reuse scoring of every training row
// (Model.TrainingDecisions).
func BenchmarkSVMTrain(b *testing.B) {
	sparse := pooledCounters(b, caseIPooledInputs(b))
	cfg := svm.Config{Nu: 0.05}
	b.Logf("l=%d dim=%d mean_nnz=%.1f", len(sparse), sparse[0].Dim, meanNNZ(sparse))
	b.Run("sparse_sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Parallelism = 1
			if _, err := svm.TrainSparse(sparse, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse_parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := svm.TrainSparse(sparse, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func meanNNZ(samples []stats.Sparse) float64 {
	var total int
	for _, s := range samples {
		total += s.NNZ()
	}
	return float64(total) / float64(len(samples))
}

// BenchmarkCounterSparse measures feature extraction over every complete
// ADC interval of a Case-I run: the dense arm sums the deltas into a
// ProgramLen-dimensional vector per interval (the reference the inspection
// paths used before they read sparse counters), the sparse arm collects
// only the executed (pc, count) pairs.
func BenchmarkCounterSparse(b *testing.B) {
	run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: 20, Seconds: 10, Seed: 100})
	if err != nil {
		b.Fatal(err)
	}
	nt := run.Trace.Node(sentomist.CaseISensorID)
	all, err := lifecycle.NewSequence(nt).Extract()
	if err != nil {
		b.Fatal(err)
	}
	var ivs []lifecycle.Interval
	for _, iv := range all {
		if iv.IRQ == sentomist.IRQADC && iv.Complete {
			ivs = append(ivs, iv)
		}
	}
	ext := feature.NewExtractor(run.Trace)
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, iv := range ivs {
				v := make([]float64, nt.ProgramLen)
				for m := iv.StartMarker + 1; m <= iv.EndMarker; m++ {
					for _, d := range nt.Markers[m].Deltas {
						v[d.PC] += float64(d.Count)
					}
				}
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, iv := range ivs {
				if _, err := ext.CounterSparse(iv); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPipelineCaseI measures the end-to-end pipeline — simulate,
// anatomize, feature, detect, rank — over the five canonical Case-I runs,
// comparing the materialized two-pass path against the streaming campaign
// engine (online anatomize + feature during emulation, markers never
// materialized, recorder/counter scratch pooled across runs).
//
//	materialized         record full traces, then Mine
//	materialized_pooled  as above, recycling trace storage between rounds
//	streaming            campaign engine, DiscardMarkers, pooled scratch
func BenchmarkPipelineCaseI(b *testing.B) {
	mineMaterialized := func(release bool) (*sentomist.Ranking, error) {
		runs := make([]*sentomist.Run, len(experiments.CaseIPeriods))
		errs := make([]error, len(experiments.CaseIPeriods))
		var wg sync.WaitGroup
		for j, d := range experiments.CaseIPeriods {
			wg.Add(1)
			go func(j, d int) {
				defer wg.Done()
				runs[j], errs[j] = sentomist.RunCaseI(sentomist.CaseIConfig{
					PeriodMS: d, Seconds: 10,
					Seed: experiments.CaseISeedBase + uint64(j),
				})
			}(j, d)
		}
		wg.Wait()
		inputs := make([]sentomist.RunInput, len(runs))
		for j, run := range runs {
			if errs[j] != nil {
				return nil, errs[j]
			}
			inputs[j] = sentomist.RunInput{Trace: run.Trace, Programs: run.Programs}
		}
		ranking, err := sentomist.Mine(inputs, sentomist.MineConfig{
			IRQ: sentomist.IRQADC, Nodes: []int{sentomist.CaseISensorID},
		})
		if release {
			for _, run := range runs {
				run.Release()
			}
		}
		return ranking, err
	}
	runsPerSec := func(b *testing.B) {
		b.Helper()
		b.ReportMetric(float64(len(experiments.CaseIPeriods))*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
	}
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mineMaterialized(false); err != nil {
				b.Fatal(err)
			}
		}
		runsPerSec(b)
	})
	b.Run("materialized_pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mineMaterialized(true); err != nil {
				b.Fatal(err)
			}
		}
		runsPerSec(b)
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.CaseICampaign(experiments.CaseISeedBase); err != nil {
				b.Fatal(err)
			}
		}
		runsPerSec(b)
	})
}
