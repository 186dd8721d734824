package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// completeInterval and incompleteInterval build minimal interval records
// for batch-path tests that never touch markers.
func completeInterval(irq, seq, node int) lifecycle.Interval {
	return lifecycle.Interval{IRQ: irq, Seq: seq, Node: node, Complete: true, EndsWithTask: true, Truth: -1}
}

func incompleteInterval(irq, seq, node int) lifecycle.Interval {
	return lifecycle.Interval{IRQ: irq, Seq: seq, Node: node, Truth: -1}
}

// onlineBatches extracts the batch stream of a few synthetic runs, one of
// which carries an incomplete (excluded) interval.
func onlineBatches(t *testing.T) []Batch {
	t.Helper()
	truncated := syntheticTrace(2, 8)
	nt := truncated.Nodes[0]
	nt.Markers = nt.Markers[:len(nt.Markers)-1]
	runs := []RunInput{
		{Trace: syntheticTrace(1, 30)},
		{Trace: truncated},
		{Trace: syntheticTrace(1, 12)},
	}
	batches, err := ExtractBatches(runs, Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	return batches
}

func sameRanking(t *testing.T, label string, want, got *Ranking) {
	t.Helper()
	if want.Detector != got.Detector || want.Labels != got.Labels ||
		want.Excluded != got.Excluded || want.Dim != got.Dim {
		t.Fatalf("%s: header differs: %+v vs %+v", label,
			[4]int{int(want.Labels), want.Excluded, want.Dim, len(want.Samples)},
			[4]int{int(got.Labels), got.Excluded, got.Dim, len(got.Samples)})
	}
	if len(want.Samples) != len(got.Samples) {
		t.Fatalf("%s: %d vs %d samples", label, len(want.Samples), len(got.Samples))
	}
	for i := range want.Samples {
		w, g := want.Samples[i], got.Samples[i]
		if w.Run != g.Run || w.Interval != g.Interval {
			t.Fatalf("%s: rank %d sample differs: %+v vs %+v", label, i, w, g)
		}
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: rank %d score %v vs %v (not bit-identical)", label, i, w.Score, g.Score)
		}
	}
}

// TestOnlineMinerBitIdenticalToMineBatches is the equivalence gate: at any
// refit cadence and in either spill mode, the final ranking equals one-shot
// MineBatches bit-for-bit.
func TestOnlineMinerBitIdenticalToMineBatches(t *testing.T) {
	want, err := MineBatches(onlineBatches(t), Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	batches := onlineBatches(t) // fresh: MineBatches scaled the first set in place
	for _, cadence := range []int{0, 1, 2, 5} {
		for _, spill := range []string{"", t.TempDir()} {
			label := "cadence-0-mem"
			if spill != "" {
				label = "disk"
			}
			m, err := NewOnlineMiner(OnlineConfig{
				Config:     Config{IRQ: 1},
				RefitEvery: cadence,
				TopK:       5,
				SpillDir:   spill,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if err := m.Add(b); err != nil {
					t.Fatalf("%s cadence %d: %v", label, cadence, err)
				}
			}
			got, err := m.Finalize()
			if err != nil {
				t.Fatalf("%s cadence %d: %v", label, cadence, err)
			}
			sameRanking(t, label, want, got)
		}
	}
}

// TestOnlineMinerIntermediateRankings: refits fire on cadence, publish
// bounded ascending rankings, and report warm/cold provenance.
func TestOnlineMinerIntermediateRankings(t *testing.T) {
	batches := onlineBatches(t)
	var seen []*OnlineRanking
	m, err := NewOnlineMiner(OnlineConfig{
		Config:     Config{IRQ: 1},
		RefitEvery: 1,
		TopK:       3,
		OnRanking:  func(r *OnlineRanking) { seen = append(seen, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := m.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	wantRefits := len(batches)
	if len(seen) != wantRefits {
		t.Fatalf("%d refits, want %d", len(seen), wantRefits)
	}
	if m.Last() != seen[len(seen)-1] {
		t.Fatal("Last() does not return the newest intermediate ranking")
	}
	for i, r := range seen {
		if r.Refit != i+1 {
			t.Fatalf("refit %d numbered %d", i, r.Refit)
		}
		if len(r.Samples) > 3 {
			t.Fatalf("refit %d published %d samples, TopK=3", r.Refit, len(r.Samples))
		}
		for j := 1; j < len(r.Samples); j++ {
			if r.Samples[j].Score < r.Samples[j-1].Score {
				t.Fatalf("refit %d ranking not ascending", r.Refit)
			}
		}
		if wantWarm := i > 0; r.Warm != wantWarm {
			t.Fatalf("refit %d Warm=%v, want %v", r.Refit, r.Warm, wantWarm)
		}
	}
	// The anomaly plus its nested short instance must surface in the last
	// intermediate top-K too (it is the same ε-optimum as the final one).
	final, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	lastTop := seen[len(seen)-1]
	if lastTop.Total != len(final.Samples) {
		t.Fatalf("last refit scored %d intervals, final ranking has %d", lastTop.Total, len(final.Samples))
	}
	if lastTop.Samples[0].Interval != final.Samples[0].Interval {
		t.Fatalf("last refit's most suspicious interval %+v differs from final %+v",
			lastTop.Samples[0].Interval, final.Samples[0].Interval)
	}
}

// TestOnlineRankingGroupsDeterministic: every refit reports how many
// distinct counters its solver iterated over; the count is deterministic —
// equal at miner parallelism 1 and 2, like Iters — and collapses the
// synthetic runs' repeated intervals.
func TestOnlineRankingGroupsDeterministic(t *testing.T) {
	var runs [2][]*OnlineRanking
	for w, par := range []int{1, 2} {
		m, err := NewOnlineMiner(OnlineConfig{
			Config:     Config{IRQ: 1, Parallelism: par},
			RefitEvery: 1,
			TopK:       3,
			OnRanking:  func(r *OnlineRanking) { runs[w] = append(runs[w], r) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range onlineBatches(t) {
			if err := m.Add(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(runs[0]) == 0 || len(runs[0]) != len(runs[1]) {
		t.Fatalf("%d and %d refits at parallelism 1 and 2", len(runs[0]), len(runs[1]))
	}
	collapsed := false
	for i, r := range runs[0] {
		if r.Groups <= 0 || r.Groups > r.Total {
			t.Fatalf("refit %d: %d groups for %d intervals", r.Refit, r.Groups, r.Total)
		}
		if o := runs[1][i]; o.Groups != r.Groups || o.Iters != r.Iters {
			t.Fatalf("refit %d: (groups %d, iters %d) at parallelism 2, (%d, %d) at 1",
				r.Refit, o.Groups, o.Iters, r.Groups, r.Iters)
		}
		collapsed = collapsed || r.Groups < r.Total
	}
	if !collapsed {
		t.Fatal("no refit collapsed repeated counters; the corpus does not exercise groups")
	}
}

// TestOnlineMinerColdRefitsMatchWarm: a cold refit is exactly one-shot
// MineBatches over the batches ingested so far, so every warm intermediate
// top-K must match MineBatches over the same batch prefix to the solver
// tolerance — per event type, in both spill modes, and across a batch
// that moves the scale bounds.
func TestOnlineMinerColdRefitsMatchWarm(t *testing.T) {
	const topK = 4
	for _, tc := range []struct {
		label string
		irqs  []int
		spill bool
		build func() []Batch
	}{
		{"mem", []int{1}, false, func() []Batch { return stableBatches(6, 9, 1) }},
		{"disk-multi-irq-widened", []int{1, 2}, true, func() []Batch { return widenedBatches(6, 7, 1, 2) }},
	} {
		var warm int
		cfg := OnlineConfig{
			Config:     Config{IRQ: tc.irqs[0]},
			IRQs:       tc.irqs[1:],
			RefitEvery: 1,
			TopK:       topK,
			OnRanking: func(r *OnlineRanking) {
				if r.Warm != (r.Refit > 1) {
					t.Fatalf("%s: refit %d reports Warm=%v", tc.label, r.Refit, r.Warm)
				}
				if r.Warm {
					warm++
				}
				cold, err := MineBatches(tc.build()[:r.Batches], Config{IRQ: r.IRQ})
				if err != nil {
					t.Fatal(err)
				}
				sameTopKToTolerance(t, fmt.Sprintf("%s/irq%d/refit%d", tc.label, r.IRQ, r.Refit), cold, r, topK)
			},
		}
		if tc.spill {
			cfg.SpillDir = t.TempDir()
		}
		m, err := NewOnlineMiner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range tc.build() {
			if err := m.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
		if warm == 0 {
			t.Fatalf("%s: no warm refit ran", tc.label)
		}
	}
}

// sameTopKToTolerance checks an intermediate ranking against the cold
// ranking of the same samples: equal counts, scores equal rank by rank to
// the solver tolerance, and any interval out of place swapped only with
// one the cold solve scores within that tolerance (a tie inside the KKT
// band). Published scores are decisions divided by the largest positive
// one, which magnifies the 1e-4 KKT band: boundary samples (decision ≈ 0)
// move by up to ~2e-3 between warm and cold solves on these batches, while
// the samples the rankings exist to surface sit 1e-1 and more apart.
func sameTopKToTolerance(t *testing.T, label string, cold *Ranking, r *OnlineRanking, topK int) {
	t.Helper()
	const tol = 1e-2
	if r.Total != len(cold.Samples) || r.Excluded != cold.Excluded {
		t.Fatalf("%s: %d scored / %d excluded, cold %d / %d", label, r.Total, r.Excluded, len(cold.Samples), cold.Excluded)
	}
	if want := min(len(cold.Samples), topK); len(r.Samples) != want {
		t.Fatalf("%s: %d top samples, want %d", label, len(r.Samples), want)
	}
	coldScore := map[lifecycle.Interval]float64{}
	for _, s := range cold.Samples {
		coldScore[s.Interval] = s.Score
	}
	for i, g := range r.Samples {
		w := cold.Samples[i]
		if math.Abs(g.Score-w.Score) > tol {
			t.Fatalf("%s: rank %d score %v, cold %v", label, i, g.Score, w.Score)
		}
		if g.Interval != w.Interval && math.Abs(coldScore[g.Interval]-w.Score) > tol {
			t.Fatalf("%s: rank %d is %+v, cold ranks %+v there", label, i, g.Interval, w.Interval)
		}
	}
}

// TestTopKIndicesMatchesRank: the bounded heap must reproduce the full
// stable sort's prefix exactly, ties included.
func TestTopKIndicesMatchesRank(t *testing.T) {
	rng := randx.New(91)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			// Coarse quantization forces plenty of ties.
			scores[i] = float64(rng.Intn(12)) / 4
		}
		full := outlier.Rank(scores)
		for _, k := range []int{0, 1, 3, n / 2, n, n + 5} {
			got := topKIndices(scores, k)
			want := full
			if k > 0 && k < len(full) {
				want = full[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d indices, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: index %d is %d, Rank says %d", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamingScaleMatchesScale01Sparse: the miner's running min/max
// statistics plus scaleWith must reproduce feature.Scale01Sparse over the
// full batch bit-for-bit — absent dims, constant dims, and dropped zeros
// included.
func TestStreamingScaleMatchesScale01Sparse(t *testing.T) {
	rng := randx.New(92)
	for trial := 0; trial < 50; trial++ {
		dim := 6 + rng.Intn(20)
		n := 1 + rng.Intn(60)
		raw := make([]stats.Sparse, n)
		for i := range raw {
			s := stats.Sparse{Dim: dim}
			for d := 0; d < dim; d++ {
				switch rng.Intn(4) {
				case 0:
					s.Idx = append(s.Idx, int32(d))
					s.Val = append(s.Val, float64(rng.Intn(9))/2)
				case 1:
					s.Idx = append(s.Idx, int32(d))
					s.Val = append(s.Val, 3) // candidate constant dimension
				}
			}
			raw[i] = s
		}
		m, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1}})
		if err != nil {
			t.Fatal(err)
		}
		b := Batch{Run: 1}
		for i, s := range raw {
			b.Intervals = append(b.Intervals, completeInterval(1, i+1, 1))
			b.Counters = append(b.Counters, s)
		}
		if err := m.Add(b); err != nil {
			t.Fatal(err)
		}
		st := m.states[1]
		st.effectiveScale()
		lo := append([]float64(nil), st.curLo...)
		hi := append([]float64(nil), st.curHi...)
		m.Close()

		want := make([]stats.Sparse, n)
		for i, s := range raw {
			want[i] = stats.Sparse{
				Idx: append([]int32(nil), s.Idx...),
				Val: append([]float64(nil), s.Val...),
				Dim: s.Dim,
			}
		}
		feature.Scale01Sparse(want)
		for i, s := range raw {
			got := scaleWith(s, lo, hi)
			if len(got.Idx) != len(want[i].Idx) {
				t.Fatalf("trial %d sample %d: %d entries, want %d", trial, i, len(got.Idx), len(want[i].Idx))
			}
			for k := range got.Idx {
				if got.Idx[k] != want[i].Idx[k] ||
					math.Float64bits(got.Val[k]) != math.Float64bits(want[i].Val[k]) {
					t.Fatalf("trial %d sample %d entry %d: (%d,%v) vs (%d,%v)",
						trial, i, k, got.Idx[k], got.Val[k], want[i].Idx[k], want[i].Val[k])
				}
			}
		}
	}
}

// TestOnlineMinerValidation covers the construction and ingest error paths.
func TestOnlineMinerValidation(t *testing.T) {
	if _, err := NewOnlineMiner(OnlineConfig{}); err == nil {
		t.Fatal("missing IRQ accepted")
	}
	// An ablation feature kind streams like counters do.
	runs := []RunInput{{Trace: syntheticTrace(1, 20)}}
	duration := Config{IRQ: 1, Feature: FeatureDuration}
	want, err := Mine(runs, duration)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := ExtractBatches(runs, duration)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewOnlineMiner(OnlineConfig{Config: duration, RefitEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := dm.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dm.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "duration stream", want, got)
	if _, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1, Detector: outlier.KNN{}}}); err == nil {
		t.Fatal("explicit detector accepted")
	}
	// A missing spill dir is created; a path through a regular file cannot be.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1}, SpillDir: filepath.Join(blocker, "dir")}); err == nil {
		t.Fatal("uncreatable spill dir accepted")
	}
	created := filepath.Join(t.TempDir(), "spill", "nested")
	m2, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1}, SpillDir: created})
	if err != nil {
		t.Fatalf("missing spill dir not created: %v", err)
	}
	m2.Close()
	if fi, err := os.Stat(created); err != nil || !fi.IsDir() {
		t.Fatalf("spill dir not created: %v", err)
	}

	m, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Batch{Run: 1, Intervals: []lifecycle.Interval{completeInterval(1, 1, 1)}}); err == nil {
		t.Fatal("interval/counter length mismatch accepted")
	}
	neg := Batch{
		Run:       1,
		Intervals: []lifecycle.Interval{completeInterval(1, 1, 1)},
		Counters:  []stats.Sparse{{Idx: []int32{0}, Val: []float64{-1}, Dim: 4}},
	}
	if err := m.Add(neg); err == nil || !strings.Contains(err.Error(), "nonnegative") {
		t.Fatalf("negative counter: %v", err)
	}
	ok := Batch{
		Run:       1,
		Intervals: []lifecycle.Interval{completeInterval(1, 1, 1)},
		Counters:  []stats.Sparse{{Idx: []int32{0}, Val: []float64{1}, Dim: 4}},
	}
	if err := m.Add(ok); err != nil {
		t.Fatal(err)
	}
	mismatched := Batch{
		Run:       1,
		Intervals: []lifecycle.Interval{completeInterval(1, 2, 1)},
		Counters:  []stats.Sparse{{Idx: []int32{0}, Val: []float64{1}, Dim: 5}},
	}
	if err := m.Add(mismatched); err == nil || !strings.Contains(err.Error(), "dims") {
		t.Fatalf("dim mismatch: %v", err)
	}
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(ok); err == nil {
		t.Fatal("Add after Finalize accepted")
	}
	if _, err := m.Finalize(); err == nil {
		t.Fatal("double Finalize accepted")
	}

	empty, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Finalize(); !errors.Is(err, ErrNoIntervals) {
		t.Fatalf("empty finalize: %v, want ErrNoIntervals", err)
	}
}

// TestOnlineMinerRejectedBatchLeavesStateIntact: a batch rejected on a
// negative counter or a dimension mismatch must not leave any trace in the
// miner's statistics — the good batches around it still refit, and the
// final ranking equals MineBatches over the good batches alone.
func TestOnlineMinerRejectedBatchLeavesStateIntact(t *testing.T) {
	good := func() []Batch { return stableBatches(2, 5, 1) }
	wide := stats.Sparse{Idx: []int32{0}, Val: []float64{3}, Dim: 6}
	for _, tc := range []struct {
		label, want string
		second      stats.Sparse
	}{
		{"negative", "nonnegative", stats.Sparse{Idx: []int32{1}, Val: []float64{-1}, Dim: 6}},
		{"dims", "dims", stats.Sparse{Idx: []int32{1}, Val: []float64{1}, Dim: 7}},
	} {
		refits := 0
		m, err := NewOnlineMiner(OnlineConfig{
			Config:     Config{IRQ: 1},
			RefitEvery: 1,
			OnRanking:  func(*OnlineRanking) { refits++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		bs := good()
		bad := Batch{
			Run:       9,
			Intervals: []lifecycle.Interval{incompleteInterval(1, 900, 1), completeInterval(1, 901, 1), completeInterval(1, 902, 1)},
			Counters:  []stats.Sparse{{}, wide, tc.second},
		}
		if err := m.Add(bs[0]); err != nil {
			t.Fatal(err)
		}
		if err := m.Add(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: bad batch: %v", tc.label, err)
		}
		if err := m.Add(bs[1]); err != nil {
			t.Fatalf("%s: good batch after a rejected one: %v", tc.label, err)
		}
		if refits != 2 {
			t.Fatalf("%s: %d refits, want 2", tc.label, refits)
		}
		got, err := m.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		want, err := MineBatches(good(), Config{IRQ: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, tc.label, want, got)
	}
}

// TestMalformedCountersRejected: a NaN or infinite value is no
// instruction count, and neither is a counter whose indices fall outside
// its dimension, descend, or outnumber its values. MineBatches and
// OnlineMiner.Add must both reject each with an error naming the sample
// (and, for a bad value, the dimension) rather than rank the batch — a
// NaN poisons the scale bounds into an all-zero-score ranking, and a bad
// index panics.
func TestMalformedCountersRejected(t *testing.T) {
	for _, tc := range []struct {
		label, want string
		bad         stats.Sparse
	}{
		{"nan", "holds NaN at dim 4", stats.Sparse{Idx: []int32{1, 4}, Val: []float64{2, math.NaN()}, Dim: 6}},
		{"+inf", "holds +Inf at dim 4", stats.Sparse{Idx: []int32{1, 4}, Val: []float64{2, math.Inf(1)}, Dim: 6}},
		{"-inf", "holds -Inf at dim 4", stats.Sparse{Idx: []int32{1, 4}, Val: []float64{2, math.Inf(-1)}, Dim: 6}},
		{"index-out-of-range", "has index 6 at entry 1", stats.Sparse{Idx: []int32{1, 6}, Val: []float64{2, 1}, Dim: 6}},
		{"descending", "has index 1 at entry 1", stats.Sparse{Idx: []int32{4, 1}, Val: []float64{2, 1}, Dim: 6}},
		{"ragged", "has 2 indices but 1 values", stats.Sparse{Idx: []int32{1, 4}, Val: []float64{2}, Dim: 6}},
	} {
		build := func() []Batch {
			bs := stableBatches(2, 5, 1)
			bs[1].Counters[2] = tc.bad
			return bs
		}
		// Batch 0 keeps two pinning samples plus five; the bad counter is
		// the third of batch 1.
		want := "sample 9 " + tc.want
		if _, err := MineBatches(build(), Config{IRQ: 1}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: MineBatches: %v, want %q", tc.label, err, want)
		}
		m, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1}, RefitEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		bs := build()
		if err := m.Add(bs[0]); err != nil {
			t.Fatal(err)
		}
		if err := m.Add(bs[1]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: OnlineMiner.Add: %v, want %q", tc.label, err, want)
		}
		m.Close()
	}
}

// TestMineBatchesValidation pins MineBatches' own input checking: length
// mismatches, ablation-feature batches, node filtering, and exclusion
// counting.
func TestMineBatchesValidation(t *testing.T) {
	if _, err := MineBatches(nil, Config{}); err == nil {
		t.Fatal("missing IRQ accepted")
	}
	bad := []Batch{{Run: 1, Intervals: []lifecycle.Interval{completeInterval(1, 1, 1)}}}
	if _, err := MineBatches(bad, Config{IRQ: 1}); err == nil || !strings.Contains(err.Error(), "intervals but") {
		t.Fatalf("length mismatch: %v", err)
	}
	// An ablation feature kind rides the batch path too.
	runs := []RunInput{{Trace: syntheticTrace(1, 20)}}
	depth := Config{IRQ: 1, Feature: FeatureStackDepth}
	want, err := Mine(runs, depth)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := ExtractBatches(runs, depth)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineBatches(batches, depth)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "stack-depth batches", want, got)
	if _, err := MineBatches(nil, Config{IRQ: 1}); !errors.Is(err, ErrNoIntervals) {
		t.Fatalf("empty batches: %v, want ErrNoIntervals", err)
	}
	// Ragged dims surface through rankSparse.
	ragged := []Batch{{
		Run:       1,
		Intervals: []lifecycle.Interval{completeInterval(1, 1, 1), completeInterval(1, 2, 1)},
		Counters:  []stats.Sparse{{Dim: 4}, {Dim: 5}},
	}}
	if _, err := MineBatches(ragged, Config{IRQ: 1}); err == nil || !strings.Contains(err.Error(), "different binaries") {
		t.Fatalf("ragged dims: %v", err)
	}

	// Node filtering and exclusion counting on the batch path.
	mixed := []Batch{{
		Run: 1,
		Intervals: []lifecycle.Interval{
			completeInterval(1, 1, 1),
			completeInterval(1, 1, 2),
			incompleteInterval(1, 2, 1),
			completeInterval(9, 3, 1), // other IRQ: silently skipped
		},
		Counters: []stats.Sparse{
			{Idx: []int32{0}, Val: []float64{1}, Dim: 4},
			{Idx: []int32{1}, Val: []float64{2}, Dim: 4},
			{},
			{},
		},
	}}
	r, err := MineBatches(mixed, Config{IRQ: 1, Nodes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) != 1 || r.Samples[0].Interval.Node != 1 {
		t.Fatalf("node filter kept %d samples (%+v)", len(r.Samples), r.Samples)
	}
	if r.Excluded != 1 {
		t.Fatalf("Excluded = %d, want 1", r.Excluded)
	}
}

// FuzzOnlineMinerChunking: for any batch re-chunking that preserves
// interval order and any refit cadence, the final ranking must stay
// bit-identical to one-shot MineBatches over the original batches.
func FuzzOnlineMinerChunking(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(1))
	f.Add(uint64(7), uint8(1), uint8(2))
	f.Add(uint64(42), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, chunk, cadence uint8) {
		rng := randx.New(seed)
		runs := []RunInput{
			{Trace: syntheticTrace(1, 5+int(seed%20))},
			{Trace: syntheticTrace(2, 3+int(seed%11))},
		}
		batches, err := ExtractBatches(runs, Config{IRQ: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := MineBatches(batches, Config{IRQ: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Re-extract (MineBatches scaled in place), then re-chunk: split
		// every batch into sub-batches of random width, preserving order.
		batches, err = ExtractBatches(runs, Config{IRQ: 1})
		if err != nil {
			t.Fatal(err)
		}
		step := int(chunk%7) + 1
		var rechunked []Batch
		for _, b := range batches {
			for lo := 0; lo < len(b.Intervals); {
				hi := lo + 1 + rng.Intn(step)
				if hi > len(b.Intervals) {
					hi = len(b.Intervals)
				}
				rechunked = append(rechunked, Batch{
					Run:       b.Run,
					Intervals: b.Intervals[lo:hi],
					Counters:  b.Counters[lo:hi],
				})
				lo = hi
			}
		}
		m, err := NewOnlineMiner(OnlineConfig{
			Config:     Config{IRQ: 1},
			RefitEvery: int(cadence % 4), // 0 = no intermediate refits
			TopK:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range rechunked {
			if err := m.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "chunked", want, got)
	})
}
