package svm

import (
	"fmt"
	"math"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// cacheProblem is one synthetic training problem for the cached-path
// equivalence corpus.
type cacheProblem struct {
	name   string
	sparse []stats.Sparse
	cfg    Config
}

// cacheCorpus builds a spread of problems: varying size, dimensionality,
// ν, kernel, duplicate structure, and cluster shape — the fuzz half of the
// bit-identicality acceptance bar (the case studies are pinned by the
// root-level equivalence tests).
func cacheCorpus() []cacheProblem {
	rng := randx.New(77)
	var out []cacheProblem
	add := func(name string, sparse []stats.Sparse, cfg Config) {
		out = append(out, cacheProblem{name: name, sparse: sparse, cfg: cfg})
	}
	add("small-rbf", sparseCluster(rng, 40, 24), Config{Nu: 0.1})
	add("mid-rbf", sparseCluster(rng, 200, 64), Config{Nu: 0.05})
	add("tight-nu", sparseCluster(rng, 120, 48), Config{Nu: 0.01})
	add("loose-nu", sparseCluster(rng, 90, 32), Config{Nu: 0.6})
	add("linear", sparseCluster(rng, 80, 40), Config{Nu: 0.1, Kernel: Linear{}})
	add("poly", sparseCluster(rng, 70, 36), Config{Nu: 0.15, Kernel: polyKernel{Gamma: 0.3, Coef0: 1, Degree: 2}})
	add("rbf-wide-gamma", sparseCluster(rng, 150, 80), Config{Nu: 0.08, Kernel: RBF{Gamma: 2.5}})

	// Heavy duplication: the dedup + shared-column regime.
	distinct := sparseCluster(rng, 12, 40)
	repeated := make([]stats.Sparse, 180)
	for i := range repeated {
		repeated[i] = distinct[i%len(distinct)]
	}
	add("repeated-12", repeated, Config{Nu: 0.05})

	// Two well-separated clusters with an outlier tail.
	two := sparseCluster(rng, 60, 50)
	shifted := sparseCluster(rng, 60, 50)
	for i, s := range shifted {
		vals := append([]float64(nil), s.Val...)
		for k := range vals {
			vals[k] += 40
		}
		shifted[i] = stats.Sparse{Idx: s.Idx, Val: vals, Dim: s.Dim}
	}
	add("two-cluster", append(two, shifted...), Config{Nu: 0.2})

	// A kernel without EvalSparse, over duplicated samples.
	fake, fakeSamples := fakeProblem(rng, 16, 96)
	add("dense-only-kernel", fakeSamples, Config{Nu: 0.1, Kernel: fake})
	return out
}

// budgets returns the cache budgets the acceptance criteria name: ∞, 25%,
// and 5% of the dense Gram footprint, plus the 2-column floor.
func budgets(l int) map[string]int64 {
	gram := int64(8) * int64(l) * int64(l)
	return map[string]int64{
		"inf":   math.MaxInt64,
		"25pct": gram / 4,
		"5pct":  gram / 20,
		"floor": 1,
	}
}

func sameModelBits(t *testing.T, label string, want, got *Model) {
	t.Helper()
	if want.Iters != got.Iters || want.NumSV != got.NumSV || want.NumBoundSV != got.NumBoundSV {
		t.Fatalf("%s: diagnostics differ: (iters=%d sv=%d bound=%d) vs (iters=%d sv=%d bound=%d)",
			label, want.Iters, want.NumSV, want.NumBoundSV, got.Iters, got.NumSV, got.NumBoundSV)
	}
	if want.Rho() != got.Rho() {
		t.Fatalf("%s: rho %v vs %v", label, want.Rho(), got.Rho())
	}
	wd, gd := want.TrainingDecisions(), got.TrainingDecisions()
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("%s: training decision %d: %v vs %v", label, i, wd[i], gd[i])
		}
	}
	if len(want.alpha) != len(got.alpha) {
		t.Fatalf("%s: %d vs %d kept coefficients", label, len(want.alpha), len(got.alpha))
	}
	for i := range want.alpha {
		if want.alpha[i] != got.alpha[i] {
			t.Fatalf("%s: alpha %d: %v vs %v", label, i, want.alpha[i], got.alpha[i])
		}
	}
}

// TestCachedTrainingBitIdentical is the column cache's claim: at ANY
// cache budget TrainSparse reproduces the per-sample dense oracle
// bit-for-bit — α, ρ, iteration count, and every training decision.
func TestCachedTrainingBitIdentical(t *testing.T) {
	for _, prob := range cacheCorpus() {
		t.Run(prob.name, func(t *testing.T) {
			want, err := trainReference(densify(prob.sparse), prob.cfg)
			if err != nil {
				t.Fatal(err)
			}
			all := budgets(len(prob.sparse))
			all["default"] = 0
			for bname, budget := range all {
				cfg := prob.cfg
				cfg.CacheBytes = budget
				got, err := TrainSparse(prob.sparse, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameModelBits(t, prob.name+"/"+bname, want, got)
				if got.CacheMisses == 0 {
					t.Fatalf("%s/%s: cache reports no misses", prob.name, bname)
				}
			}
		})
	}
}

// TestCacheBytesSetsBudget: CacheBytes only sizes the column cache. Zero
// selects DefaultCacheBytes, which holds every column of a small problem;
// a small budget keeps fewer resident and trains the same model.
func TestCacheBytesSetsBudget(t *testing.T) {
	rng := randx.New(5)
	samples := sparsify(cluster(rng, 60, []float64{1, 1}, 0.7))
	base, err := TrainSparse(samples, Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if base.CacheCols != base.Groups {
		t.Fatalf("default budget holds %d of %d columns", base.CacheCols, base.Groups)
	}
	small, err := TrainSparse(samples, Config{Nu: 0.1, CacheBytes: 8 * 60 * 4})
	if err != nil {
		t.Fatal(err)
	}
	if small.CacheCols != 4 {
		t.Fatalf("a four-column budget holds %d columns", small.CacheCols)
	}
	sameModelBits(t, "small budget", base, small)
}

// TestRefitEqualsTrainSparse: growing each corpus problem in quarters
// through one Incremental at a 5% cache budget, every refit — carried
// columns and all — equals TrainSparse over the same prefix bit for bit.
func TestRefitEqualsTrainSparse(t *testing.T) {
	for _, prob := range cacheCorpus() {
		t.Run(prob.name, func(t *testing.T) {
			cfg := prob.cfg
			cfg.CacheBytes = budgets(len(prob.sparse))["5pct"]
			inc := NewIncremental(cfg)
			for q := 1; q <= 4; q++ {
				prefix := prob.sparse[:len(prob.sparse)*q/4]
				got, err := inc.Refit(prefix, true)
				if err != nil {
					t.Fatal(err)
				}
				want, err := TrainSparse(prefix, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameModelBits(t, fmt.Sprintf("%s/quarter%d", prob.name, q), want, got)
			}
			if inc.Rebuilds != 1 {
				t.Fatalf("%d rebuilds, want 1: the grown refits must carry state", inc.Rebuilds)
			}
		})
	}
}

// fakeKernel looks kernel values up in an explicit matrix, keyed by the
// 1-D sample value. It lets tests steer the SMO working-set selection into
// branches real geometry cannot reach (the η ≤ 1e-12 degenerate step).
type fakeKernel struct{ m [][]float64 }

func (k fakeKernel) Eval(a, b []float64) float64 { return k.m[int(a[0])][int(b[0])] }
func (k fakeKernel) String() string              { return "fake" }

// fakeProblem is a dense-only kernel problem: l one-dimensional samples
// cycling through the values 0..n−1, under a fakeKernel whose table is the
// RBF Gram of n random points, symmetric bit for bit.
func fakeProblem(rng *randx.RNG, n, l int) (fakeKernel, []stats.Sparse) {
	pts := cluster(rng, n, []float64{0, 0, 0}, 1)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := RBF{Gamma: 0.5}.Eval(pts[i], pts[j])
			m[i][j], m[j][i] = v, v
		}
	}
	samples := make([]stats.Sparse, l)
	for i := range samples {
		samples[i] = stats.DenseToSparse([]float64{float64(i % n)})
	}
	return fakeKernel{m}, samples
}

// TestSolveDegenerateEta drives the solver into the η ≤ 1e-12 branch: the
// working pair (2,0) has K22+K00−2·K20 = 5e-14, so the Newton step is
// infinite and must clamp to the box. The scripted optimum after two
// iterations is exact (all clamp arithmetic is in halves), so the test
// asserts it bitwise.
func TestSolveDegenerateEta(t *testing.T) {
	const tiny = 2.5e-14
	m := [][]float64{
		{1, 0, 1 - tiny, 0.6},
		{0, 1, -0.5, 0.6},
		{1 - tiny, -0.5, 1, 0.6},
		{0.6, 0.6, 0.6, 1},
	}
	samples := [][]float64{{0}, {1}, {2}, {3}}
	// ν = 0.5, l = 4 ⇒ C = 0.5, initial α = [0.5, 0.5, 0, 0], so
	// grad[k] = 0.5·(m[k][0] + m[k][1]) = [0.5, 0.5, 0.25−tiny/2, 0.6].
	// Working set: i = 2 (α < C with smallest grad), j = 0 (first of the
	// α > 0 maxima). η = m22 + m00 − 2·m20 = 2·tiny ≤ 1e-12 ⇒ δ = +Inf,
	// clamped to room C−α₂ = 0.5, then to α₀ = 0.5 — all halves, so the
	// resulting α = [0, 0.5, 0.5, 0] is exact and asserted bitwise.
	model, err := TrainSparse(sparsify(samples), Config{Nu: 0.5, Kernel: fakeKernel{m}, MaxIter: 1, Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if model.Iters != 1 {
		t.Fatalf("Iters = %d, want 1", model.Iters)
	}
	dec := model.TrainingDecisions()
	if len(dec) != 4 {
		t.Fatalf("decisions: %v", dec)
	}
	if model.NumSV != 2 {
		t.Fatalf("NumSV = %d, want 2 (mass moved wholly onto samples 1 and 2)", model.NumSV)
	}
	if model.alpha[0] != 0.5 || model.alpha[1] != 0.5 {
		t.Fatalf("alpha = %v, want [0.5 0.5]", model.alpha)
	}
}

// TestSolveNuOne: ν = 1 puts every sample at the bound C = 1/l; the dual
// is fully determined at initialization, the working-set scan finds no
// candidate i, and training terminates immediately with all samples
// support vectors at bound. l is a power of two so C and the prefix
// subtractions are exact and every α equals C bitwise.
func TestSolveNuOne(t *testing.T) {
	rng := randx.New(12)
	samples := sparsify(cluster(rng, 32, []float64{2, -1}, 0.8))
	m, err := TrainSparse(samples, Config{Nu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters != 0 {
		t.Fatalf("Iters = %d, want 0 (dual fixed by the ν=1 box)", m.Iters)
	}
	if m.NumSV != len(samples) {
		t.Fatalf("NumSV = %d, want %d", m.NumSV, len(samples))
	}
	if m.NumBoundSV != len(samples) {
		t.Fatalf("NumBoundSV = %d, want %d", m.NumBoundSV, len(samples))
	}
	c := 1 / float64(len(samples))
	for _, a := range m.alpha {
		if a != c {
			t.Fatalf("alpha %v, want exactly C=%v", a, c)
		}
	}
	// The two-column floor must agree bitwise here too.
	mc, err := TrainSparse(samples, Config{Nu: 1, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameModelBits(t, "nu-1-cached", m, mc)
}

// TestSolveMaxIterExhaustion: a starved iteration budget must still return
// a usable model — diagnostics reporting the spent budget, a feasible
// dual, finite ρ and decisions.
func TestSolveMaxIterExhaustion(t *testing.T) {
	rng := randx.New(13)
	samples := sparsify(cluster(rng, 150, []float64{0, 0, 0}, 1.2))
	for _, cfg := range []Config{
		{Nu: 0.05, MaxIter: 3},
		{Nu: 0.05, MaxIter: 3, CacheBytes: 1 << 14},
	} {
		m, err := TrainSparse(samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Iters != 3 {
			t.Fatalf("Iters = %d, want the exhausted budget 3", m.Iters)
		}
		if math.IsNaN(m.Rho()) || math.IsInf(m.Rho(), 0) {
			t.Fatalf("rho = %v", m.Rho())
		}
		var sum float64
		for _, a := range m.alpha {
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sum(alpha) = %v after exhaustion", sum)
		}
		for _, d := range m.TrainingDecisions() {
			if math.IsNaN(d) {
				t.Fatal("NaN training decision after exhaustion")
			}
		}
	}
}
