package svm

import (
	"math"
	"sync/atomic"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// TestIncrementalFirstRefitBitIdentical: the first Refit carries no state,
// so it must reproduce the per-sample dense oracle bit-for-bit.
func TestIncrementalFirstRefitBitIdentical(t *testing.T) {
	rng := randx.New(41)
	samples := sparseCluster(rng, 150, 48)
	cfg := Config{Nu: 0.08, CacheBytes: budgets(len(samples))["25pct"]}
	want, err := trainReference(densify(samples), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewIncremental(cfg).Refit(samples, false)
	if err != nil {
		t.Fatal(err)
	}
	sameModelBits(t, "first-refit", want, got)
}

// TestIncrementalWarmUnchangedConvergesImmediately: refitting the very same
// batch warm-starts at the previous optimum, which already satisfies the
// KKT tolerance — zero iterations, identical coefficients and SV set.
func TestIncrementalWarmUnchangedConvergesImmediately(t *testing.T) {
	rng := randx.New(42)
	samples := sparseCluster(rng, 120, 40)
	inc := NewIncremental(Config{Nu: 0.1, CacheBytes: 1 << 20})
	first, err := inc.Refit(samples, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := inc.Refit(samples, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Iters != 0 {
		t.Fatalf("warm refit of unchanged data took %d iterations", again.Iters)
	}
	if inc.Rebuilds != 1 {
		t.Fatalf("unchanged refit rebuilt the cache (%d rebuilds)", inc.Rebuilds)
	}
	if len(again.alpha) != len(first.alpha) {
		t.Fatalf("SV count changed: %d vs %d", len(again.alpha), len(first.alpha))
	}
	for i := range first.alpha {
		if first.alpha[i] != again.alpha[i] {
			t.Fatalf("alpha %d: %v vs %v", i, first.alpha[i], again.alpha[i])
		}
	}
	// ρ is recomputed from a freshly-assembled gradient, so it can move in
	// the last few bits relative to the incrementally-updated gradient of
	// the first solve — but no further.
	if math.Abs(first.Rho()-again.Rho()) > 1e-12 {
		t.Fatalf("rho moved: %v vs %v", first.Rho(), again.Rho())
	}
}

// TestIncrementalGrownMatchesCold: growing the batch across warm refits
// must land on the same ε-optimum a cold solve finds: decisions within the
// KKT band, no rank swaps wider than it.
func TestIncrementalGrownMatchesCold(t *testing.T) {
	rng := randx.New(43)
	full := sparseCluster(rng, 240, 56)
	cfg := Config{Nu: 0.07, CacheBytes: budgets(len(full))["25pct"]}
	inc := NewIncremental(cfg)
	var warm *Model
	for _, cut := range []int{60, 120, 180, 240} {
		m, err := inc.Refit(full[:cut], true)
		if err != nil {
			t.Fatal(err)
		}
		warm = m
	}
	cold, err := TrainSparse(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameEpsOptimum(t, "grown", cold, warm, cfg.Nu)
	// The warm trajectory should also be cheaper than re-solving cold.
	if warm.Iters >= cold.Iters {
		t.Logf("note: final warm refit took %d iters vs cold %d", warm.Iters, cold.Iters)
	}
}

// TestIncrementalInvalidPrefixRebuilds: prefixValid=false must drop the
// dedup/cache state (the sample values moved) and still produce the same
// ε-optimum as a cold solve on the new values.
func TestIncrementalInvalidPrefixRebuilds(t *testing.T) {
	rng := randx.New(44)
	a := sparseCluster(rng, 100, 32)
	inc := NewIncremental(Config{Nu: 0.1, CacheBytes: 1 << 20})
	if _, err := inc.Refit(a, false); err != nil {
		t.Fatal(err)
	}
	// Rescale every value — the prefix is no longer bitwise valid.
	b := make([]stats.Sparse, len(a))
	for i, s := range a {
		vals := make([]float64, len(s.Val))
		for k, v := range s.Val {
			vals[k] = v * 0.5
		}
		b[i] = stats.Sparse{Idx: s.Idx, Val: vals, Dim: s.Dim}
	}
	got, err := inc.Refit(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Rebuilds != 2 {
		t.Fatalf("want 2 rebuilds, got %d", inc.Rebuilds)
	}
	cold, err := TrainSparse(b, Config{Nu: 0.1, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	coldDec, gotDec := cold.TrainingDecisions(), got.TrainingDecisions()
	for k := range coldDec {
		if math.Abs(coldDec[k]-gotDec[k]) > 1e-3 {
			t.Fatalf("sample %d decision %v vs cold %v", k, gotDec[k], coldDec[k])
		}
	}
}

// TestProjectAlphaFeasible: the projected warm start must always lie in
// the dual feasible set {0 ≤ αᵢ ≤ c, Σα ≈ 1}, including when the box bound
// tightens (l grows) and when mass must spill onto new samples.
func TestProjectAlphaFeasible(t *testing.T) {
	rng := randx.New(45)
	for trial := 0; trial < 200; trial++ {
		nu := 0.02 + 0.9*rng.Float64()
		pl := 1 + rng.Intn(80)
		l := pl + rng.Intn(120)
		// Build a feasible prev for the OLD problem (bound 1/(νpl)).
		oldC := 1 / (nu * float64(pl))
		prev := make([]float64, pl)
		remaining := 1.0
		for i := 0; i < pl && remaining > 0; i++ {
			a := math.Min(remaining, oldC*rng.Float64())
			if i == pl-1 {
				a = math.Min(remaining, oldC)
			}
			prev[i] = a
			remaining -= a
		}
		c := 1 / (nu * float64(l))
		warm := projectAlpha(prev, l, c)
		var sum float64
		for i, a := range warm {
			if a < 0 || a > c+1e-12 {
				t.Fatalf("trial %d: warm[%d]=%v outside [0,%v]", trial, i, a, c)
			}
			sum += a
		}
		// projectAlpha preserves whatever mass prev carried (≤1) and tops
		// it up to 1 when the box permits; capacity c·l = 1/ν ≥ 1 always.
		if sum > 1+1e-9 || sum < 1-1e-9 {
			t.Fatalf("trial %d: warm mass %v, want 1 (pl=%d l=%d nu=%v)", trial, sum, pl, l, nu)
		}
	}
}

// TestProjectAlphaUnchangedIsIdentity: same l, same c → bitwise copy.
func TestProjectAlphaUnchangedIsIdentity(t *testing.T) {
	prev := []float64{0.25, 0, 0.5, 0.25}
	warm := projectAlpha(prev, len(prev), 0.5)
	for i := range prev {
		if warm[i] != prev[i] {
			t.Fatalf("warm[%d]=%v, want %v", i, warm[i], prev[i])
		}
	}
}

// countingKernel wraps RBF and counts sparse evaluations.
type countingKernel struct {
	RBF
	n *atomic.Int64
}

func (k countingKernel) EvalSparse(a, b stats.Sparse) float64 {
	k.n.Add(1)
	return k.RBF.EvalSparse(a, b)
}

// TestExtendToMatchesFreshSource: a source grown batch-by-batch must
// assign the same groups — and fill bit-identical columns — as one built
// in a single shot over the full batch.
func TestExtendToMatchesFreshSource(t *testing.T) {
	rng := randx.New(46)
	distinct := sparseCluster(rng, 9, 24)
	full := make([]stats.Sparse, 90)
	for i := range full {
		full[i] = distinct[rng.Intn(len(distinct))]
	}
	kernel := RBF{Gamma: 1.0 / 24}

	grown := newSparseColSource(full[:30], kernel, 1)
	grown.extendTo(full[:60])
	grown.extendTo(full)
	fresh := newSparseColSource(full, kernel, 1)

	if grown.distinct() != fresh.distinct() {
		t.Fatalf("distinct: grown %d vs fresh %d", grown.distinct(), fresh.distinct())
	}
	for i := range full {
		if grown.group[i] != fresh.group[i] {
			t.Fatalf("sample %d: group %d (grown) vs %d (fresh)", i, grown.group[i], fresh.group[i])
		}
	}
	a, b := make([]float64, fresh.distinct()), make([]float64, fresh.distinct())
	for g := 0; g < fresh.distinct(); g++ {
		grown.fill(g, a)
		fresh.fill(g, b)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("column %d cell %d: %v vs %v", g, k, a[k], b[k])
			}
		}
	}
}

// TestCacheGrowBitExactAndCheap: after extendTo + grow, a resident column
// must be extended lazily — zero kernel evaluations until the column is
// touched, then exactly (new groups) evaluations for that one column — and
// the extended column must hold one cell per group, bit-identical to a
// from-scratch fill and to the pairwise kernel evaluation. Untouched
// columns never pay anything.
func TestCacheGrowBitExactAndCheap(t *testing.T) {
	rng := randx.New(47)
	distinct := sparseCluster(rng, 12, 20)
	full := make([]stats.Sparse, 120)
	for i := range full[:80] {
		full[i] = distinct[rng.Intn(8)] // the tail introduces groups 8..11
	}
	for i := 80; i < len(full); i++ {
		full[i] = distinct[rng.Intn(len(distinct))]
	}
	var evals atomic.Int64
	kernel := countingKernel{RBF{Gamma: 0.05}, &evals}

	src := newSparseColSource(full[:80], kernel, 1)
	cache := newColCache(src, 1<<30) // room for every column
	oldReps := src.distinct()
	var resident []int
	for g := 0; g < oldReps; g++ {
		cache.col(g)
		resident = append(resident, g)
	}

	src.extendTo(full)
	evals.Store(0)
	cache.grow(1 << 30)
	newReps := src.distinct() - oldReps
	if newReps == 0 {
		t.Fatal("tail introduced no new groups; the accounting below is vacuous")
	}
	if got := evals.Load(); got != 0 {
		t.Fatalf("grow paid %d kernel evals eagerly, want 0 (extension is lazy)", got)
	}

	freshSrc := newSparseColSource(full, RBF{Gamma: 0.05}, 1)
	want := make([]float64, freshSrc.distinct())
	for _, g := range resident {
		evals.Store(0)
		got := cache.col(g) // first touch after growth extends
		if int64(newReps) != evals.Load() {
			t.Fatalf("column %d extension paid %d kernel evals, want %d (one per new group)",
				g, evals.Load(), newReps)
		}
		if len(got) != src.distinct() {
			t.Fatalf("column %d length %d, want %d (one cell per group)", g, len(got), src.distinct())
		}
		freshSrc.fill(g, want)
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("column %d cell %d: %v (grown) vs %v (fresh)", g, b, got[b], want[b])
			}
			if pair := (RBF{Gamma: 0.05}).EvalSparse(full[src.reps[max(b, g)]], full[src.reps[min(b, g)]]); got[b] != pair {
				t.Fatalf("column %d cell %d: %v (grown) vs %v (pairwise)", g, b, got[b], pair)
			}
		}
		evals.Store(0)
		cache.col(g) // second touch is a plain hit
		if evals.Load() != 0 {
			t.Fatalf("column %d re-touch paid %d kernel evals, want 0", g, evals.Load())
		}
	}
}

// TestCacheGrowEvictsToBudget: shrinking the budget during grow drops LRU
// columns first and keeps the rest valid.
func TestCacheGrowEvictsToBudget(t *testing.T) {
	rng := randx.New(48)
	samples := sparseCluster(rng, 64, 16)
	src := newSparseColSource(samples[:48], RBF{Gamma: 0.1}, 1)
	cache := newColCache(src, 1<<30)
	for g := 0; g < 8; g++ {
		cache.col(g)
	}
	src.extendTo(samples)
	cache.grow(8 * 64 * 3) // room for exactly 3 columns
	if len(cache.entries) != 3 {
		t.Fatalf("%d resident columns after grow, want 3", len(cache.entries))
	}
	if cache.capCols != 3 {
		t.Fatalf("capCols %d, want 3", cache.capCols)
	}
	// The 3 survivors are the most recently used: groups 5, 6, 7.
	for _, g := range []int{5, 6, 7} {
		if cache.entries[g] == nil {
			t.Fatalf("group %d evicted, expected it to survive (MRU)", g)
		}
	}
}

// TestIncrementalAcceptsDenseOnlyKernel: a kernel without EvalSparse
// trains through the densifying adapter. The first refit equals the
// per-sample dense oracle bit for bit, and a grown batch refits warm.
func TestIncrementalAcceptsDenseOnlyKernel(t *testing.T) {
	rng := randx.New(49)
	fake, samples := fakeProblem(rng, 10, 40)
	cfg := Config{Nu: 0.2, Kernel: fake}
	want, err := trainReference(densify(samples[:30]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(cfg)
	got, err := inc.Refit(samples[:30], false)
	if err != nil {
		t.Fatal(err)
	}
	sameModelBits(t, "first refit", want, got)
	if _, ok := got.Kernel().(fakeKernel); !ok {
		t.Fatalf("model reports kernel %T, want the configured fakeKernel", got.Kernel())
	}
	grown, err := inc.Refit(samples, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.TrainingDecisions()) != len(samples) || inc.Rebuilds != 1 {
		t.Fatalf("warm refit: %d decisions, %d rebuilds", len(grown.TrainingDecisions()), inc.Rebuilds)
	}
}

// TestIncrementalValidation: empty batches, bad nu, ragged dims.
func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(Config{Nu: 0.1}).Refit(nil, false); err != ErrNoData {
		t.Fatalf("empty batch: %v, want ErrNoData", err)
	}
	rng := randx.New(50)
	samples := sparseCluster(rng, 10, 16)
	if _, err := NewIncremental(Config{Nu: 0}).Refit(samples, false); err == nil {
		t.Fatal("nu=0 accepted")
	}
	ragged := append(append([]stats.Sparse(nil), samples...), stats.Sparse{Dim: 9})
	if _, err := NewIncremental(Config{Nu: 0.1}).Refit(ragged, false); err == nil {
		t.Fatal("ragged dims accepted")
	}
}
