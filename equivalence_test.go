package sentomist_test

// The sparse/parallel mining engine claims more than a tolerance: the
// default pipeline (sparse features through ExtractBatches → MineBatches,
// concurrent anatomize + feature workers, parallel kernel column fills,
// Gram-reuse scoring) must produce rankings identical to the dense
// baseline: dense features, Scale01 and the detector's dense Score. These
// tests pin that equivalence on the three paper case studies, for every
// feature kind, and at every kernel cache budget.

import (
	"math"
	"testing"

	"sentomist"
	"sentomist/internal/core"
	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
)

// caseFixtures returns one Mine workload per paper case study, sized for
// test time rather than paper fidelity (the golden tests pin the canonical
// full-length rankings).
func caseFixtures(t *testing.T) map[string]struct {
	inputs []sentomist.RunInput
	cfg    sentomist.MineConfig
} {
	t.Helper()
	fixtures := make(map[string]struct {
		inputs []sentomist.RunInput
		cfg    sentomist.MineConfig
	})

	var caseI []sentomist.RunInput
	for i, d := range []int{20, 40, 60} {
		run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: d, Seconds: 5, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		caseI = append(caseI, sentomist.RunInput{Trace: run.Trace, Programs: run.Programs})
	}
	fixtures["caseI"] = struct {
		inputs []sentomist.RunInput
		cfg    sentomist.MineConfig
	}{caseI, sentomist.MineConfig{IRQ: sentomist.IRQADC, Nodes: []int{sentomist.CaseISensorID}}}

	runII, err := sentomist.RunCaseII(sentomist.CaseIIConfig{Seconds: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fixtures["caseII"] = struct {
		inputs []sentomist.RunInput
		cfg    sentomist.MineConfig
	}{
		[]sentomist.RunInput{{Trace: runII.Trace, Programs: runII.Programs}},
		sentomist.MineConfig{IRQ: sentomist.IRQRadioRX, Nodes: []int{sentomist.CaseIIRelayID}, Labels: sentomist.LabelSeqOnly},
	}

	runIII, err := sentomist.RunCaseIII(sentomist.CaseIIIConfig{Seconds: 8, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	fixtures["caseIII"] = struct {
		inputs []sentomist.RunInput
		cfg    sentomist.MineConfig
	}{
		[]sentomist.RunInput{{Trace: runIII.Trace, Programs: runIII.Programs}},
		sentomist.MineConfig{IRQ: sentomist.IRQTimer0, Nodes: sentomist.CaseIIISources(), Labels: sentomist.LabelNodeSeq},
	}
	return fixtures
}

func sameRanking(t *testing.T, label string, want, got *sentomist.Ranking) {
	t.Helper()
	if len(want.Samples) != len(got.Samples) {
		t.Fatalf("%s: %d samples vs %d", label, len(want.Samples), len(got.Samples))
	}
	if want.Dim != got.Dim || want.Excluded != got.Excluded {
		t.Fatalf("%s: dim/excluded drifted: (%d,%d) vs (%d,%d)",
			label, want.Dim, want.Excluded, got.Dim, got.Excluded)
	}
	for i := range want.Samples {
		w, g := want.Samples[i], got.Samples[i]
		if w.Run != g.Run || w.Interval != g.Interval {
			t.Fatalf("%s: rank %d order differs: %+v vs %+v", label, i+1, w.Interval, g.Interval)
		}
		diff := w.Score - g.Score
		if diff < -1e-12 || diff > 1e-12 {
			t.Fatalf("%s: rank %d score %v vs %v", label, i+1, w.Score, g.Score)
		}
		if w.Score != g.Score {
			t.Logf("%s: rank %d score differs within tolerance: %v vs %v", label, i+1, w.Score, g.Score)
		}
	}
}

// denseMine is the dense baseline, built only from exported pieces: every
// monitored node anatomized by lifecycle.Sequence, every complete interval
// of cfg.IRQ featured as a dense vector by denseFeature, Scale01 over the
// pooled matrix, then det.Score on the dense batch.
func denseMine(tb testing.TB, inputs []sentomist.RunInput, cfg sentomist.MineConfig, det sentomist.Detector) *sentomist.Ranking {
	tb.Helper()
	allowed := map[int]bool{}
	for _, id := range cfg.Nodes {
		allowed[id] = true
	}
	var samples []sentomist.Sample
	var vectors [][]float64
	excluded := 0
	for ri, in := range inputs {
		ext := feature.NewExtractor(in.Trace)
		for _, nt := range in.Trace.Nodes {
			if len(allowed) > 0 && !allowed[nt.NodeID] {
				continue
			}
			ivs, err := lifecycle.NewSequence(nt).Extract()
			if err != nil {
				tb.Fatal(err)
			}
			for _, iv := range ivs {
				if iv.IRQ != cfg.IRQ {
					continue
				}
				if !iv.Complete {
					excluded++
					continue
				}
				v, err := denseFeature(ext, in, cfg.Feature, iv)
				if err != nil {
					tb.Fatal(err)
				}
				samples = append(samples, sentomist.Sample{Run: ri + 1, Interval: iv})
				vectors = append(vectors, v)
			}
		}
	}
	feature.Scale01(vectors)
	scores, err := det.Score(vectors)
	if err != nil {
		tb.Fatal(err)
	}
	r := &sentomist.Ranking{Excluded: excluded, Dim: len(vectors[0])}
	for _, i := range outlier.Rank(scores) {
		s := samples[i]
		s.Score = scores[i]
		r.Samples = append(r.Samples, s)
	}
	return r
}

// denseFeature is the dense feature vector of one complete interval: the
// ProgramLen-dimensional Definition-4 counter (the densified
// feature.Extractor.CounterSparse, which feature's tests pin against a
// dense sum) by default, or the per-function counter, duration or stack depth of
// the ablation kinds.
func denseFeature(ext *feature.Extractor, in sentomist.RunInput, kind core.FeatureKind, iv lifecycle.Interval) ([]float64, error) {
	switch kind {
	case sentomist.FeatureFuncCount:
		return ext.FuncCounter(in.Programs[iv.Node], iv)
	case sentomist.FeatureDuration:
		return ext.Duration(iv), nil
	case sentomist.FeatureStackDepth:
		return ext.StackDepth(iv)
	default:
		c, err := ext.CounterSparse(iv)
		return c.Dense(), err
	}
}

// TestMineSparseParallelEquivalence checks every sparse Mine configuration
// against the dense sequential baseline on all three case fixtures: the
// same dimensionality and exclusions, and every rank and score bit for bit.
func TestMineSparseParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	for name, fx := range caseFixtures(t) {
		t.Run(name, func(t *testing.T) {
			want := denseMine(t, fx.inputs, fx.cfg, outlier.OneClassSVM{Parallelism: 1})
			variants := map[string]sentomist.MineConfig{
				"sparse-seq":   {Parallelism: 1},
				"sparse-par":   {Parallelism: 8},
				"sparse-auto":  {},
				"gram-par":     {Parallelism: 1, Detector: outlier.OneClassSVM{Parallelism: 8}},
				"all-parallel": {Parallelism: 8, Detector: outlier.OneClassSVM{Parallelism: 8}},
			}
			for vname, v := range variants {
				cfg := fx.cfg
				cfg.Parallelism = v.Parallelism
				cfg.Detector = v.Detector
				got, err := sentomist.Mine(fx.inputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Dim != want.Dim || got.Excluded != want.Excluded {
					t.Fatalf("%s/%s: dim/excluded (%d,%d), want (%d,%d)",
						name, vname, got.Dim, got.Excluded, want.Dim, want.Excluded)
				}
				sameRankingExact(t, name+"/"+vname, want, got)
			}
		})
	}
}

// TestMineAblationMatchesDenseBaseline pins the ablation feature kinds on
// the batch path: Mine ranks the sparse form of every dense feature
// vector through MineBatches, and must equal the dense baseline (Scale01,
// then the detector's dense Score) in every rank, score bit, Dim and
// Excluded, for the one-class SVM and for PCA, which has no sparse path,
// so rankSparse densifies the scaled batch for it.
func TestMineAblationMatchesDenseBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	run, err := sentomist.RunCaseII(sentomist.CaseIIConfig{Seconds: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []sentomist.RunInput{{Trace: run.Trace, Programs: run.Programs}}
	kinds := map[string]core.FeatureKind{
		"func-count":  sentomist.FeatureFuncCount,
		"duration":    sentomist.FeatureDuration,
		"stack-depth": sentomist.FeatureStackDepth,
	}
	for kname, kind := range kinds {
		for _, det := range []sentomist.Detector{sentomist.SVMDetector{}, sentomist.PCADetector(0)} {
			label := kname + "/" + det.Name()
			cfg := sentomist.MineConfig{
				IRQ:      sentomist.IRQRadioRX,
				Nodes:    []int{sentomist.CaseIIRelayID},
				Labels:   sentomist.LabelSeqOnly,
				Feature:  kind,
				Detector: det,
			}
			want := denseMine(t, inputs, cfg, det)
			got, err := sentomist.Mine(inputs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Dim != want.Dim || got.Excluded != want.Excluded {
				t.Fatalf("%s: dim/excluded (%d,%d), want (%d,%d)", label, got.Dim, got.Excluded, want.Dim, want.Excluded)
			}
			sameRankingExact(t, label, want, got)
			for i := range want.Samples {
				if math.Float64bits(want.Samples[i].Score) != math.Float64bits(got.Samples[i].Score) {
					t.Fatalf("%s: rank %d score bits differ: %v vs %v", label, i+1, want.Samples[i].Score, got.Samples[i].Score)
				}
			}
		}
	}
}

// sameRankingExact is sameRanking with zero tolerance: every rank and
// every score must match bit-for-bit.
func sameRankingExact(t *testing.T, label string, want, got *sentomist.Ranking) {
	t.Helper()
	if len(want.Samples) != len(got.Samples) {
		t.Fatalf("%s: %d samples vs %d", label, len(want.Samples), len(got.Samples))
	}
	for i := range want.Samples {
		w, g := want.Samples[i], got.Samples[i]
		if w != g {
			t.Fatalf("%s: rank %d differs: %+v (score %v) vs %+v (score %v)",
				label, i+1, w.Interval, w.Score, g.Interval, g.Score)
		}
	}
}

// TestMineCachedKernelEquivalence pins the on-demand kernel cache's
// central claim on the three case studies: mining through the bounded
// column cache — at budgets from effectively unbounded down to 5% of the
// dense Gram footprint — reproduces the default pipeline's ranking
// bit-for-bit (the golden Figure 5 tables stay byte-stable).
func TestMineCachedKernelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	for name, fx := range caseFixtures(t) {
		t.Run(name, func(t *testing.T) {
			want, err := sentomist.Mine(fx.inputs, fx.cfg)
			if err != nil {
				t.Fatal(err)
			}
			gram := int64(8) * int64(len(want.Samples)) * int64(len(want.Samples))
			budgets := map[string]int64{
				"unbounded": 1 << 40,
				"25pct":     gram / 4,
				"5pct":      gram / 20,
			}
			for bname, budget := range budgets {
				cfg := fx.cfg
				cfg.SVMCacheBytes = budget
				got, err := sentomist.Mine(fx.inputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameRankingExact(t, name+"/cached-"+bname, want, got)
			}
		})
	}
}

// TestMineParallelRace drives the worker pools hard enough for the race
// detector to observe them (go test -race exercises this deliberately):
// repeated concurrent mining of the same immutable inputs.
func TestMineParallelRace(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: 20, Seconds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sentomist.MineConfig{
		IRQ:         sentomist.IRQADC,
		Nodes:       []int{sentomist.CaseISensorID},
		Parallelism: 8,
		Detector:    outlier.OneClassSVM{Parallelism: 8},
	}
	var first *sentomist.Ranking
	for i := 0; i < 3; i++ {
		// Feature extraction mutates nothing in the trace, so the same
		// inputs can be mined repeatedly.
		r, err := sentomist.Mine([]sentomist.RunInput{{Trace: run.Trace, Programs: run.Programs}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
		} else {
			sameRanking(t, "repeat", first, r)
		}
	}
}
