package svm

import (
	"fmt"
	"math"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// sparseCluster generates n sparse points in dim dimensions: a shared set
// of "hot" coordinates plus per-point noise coordinates, mimicking the
// instruction-counter shape (few nonzeros out of many dimensions).
func sparseCluster(rng *randx.RNG, n, dim int) []stats.Sparse {
	out := make([]stats.Sparse, n)
	for i := range out {
		v := make([]float64, dim)
		for _, d := range []int{3, 7, 11} {
			v[d] = 5 + rng.NormFloat64()
		}
		extra := int(rng.Uint64() % uint64(dim))
		v[extra] += float64(rng.Uint64()%10) / 3
		out[i] = stats.DenseToSparse(v)
	}
	return out
}

func densify(samples []stats.Sparse) [][]float64 {
	out := make([][]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Dense()
	}
	return out
}

func sparsify(dense [][]float64) []stats.Sparse {
	out := make([]stats.Sparse, len(dense))
	for i, v := range dense {
		out[i] = stats.DenseToSparse(v)
	}
	return out
}

// oracleBudgets are the cache budgets the training oracles run at: the
// default (0), the two-column floor, and every column resident.
var oracleBudgets = map[string]int64{"default": 0, "two-columns": 1, "all": math.MaxInt64}

// denseDecision evaluates m's decision function on a dense probe through
// the kernel's dense Eval, the way per-sample dense scoring did.
func denseDecision(m *Model, x []float64) float64 {
	var s float64
	for i, v := range m.sv {
		s += m.alpha[i] * m.Kernel().Eval(v.Dense(), x)
	}
	return s - m.rho
}

// TestTrainSparseMatchesTrain pins the sparse path's central claim: the
// model TrainSparse fits equals the per-sample dense oracle's bit for bit,
// for every built-in kernel and a dense-only one, at every cache budget,
// and scores out-of-sample probes like dense evaluation does.
func TestTrainSparseMatchesTrain(t *testing.T) {
	rng := randx.New(42)
	sparse := sparseCluster(rng, 60, 40)
	fake, fakeSamples := fakeProblem(rng, 12, 48)
	probes := densify(sparseCluster(rng, 5, 40))
	problems := []struct {
		sparse []stats.Sparse
		kernel Kernel
		probes [][]float64
	}{
		{sparse, nil, probes},
		{sparse, RBF{Gamma: 0.3}, probes},
		{sparse, Linear{}, probes},
		{sparse, Poly{Gamma: 0.5, Coef0: 1, Degree: 2}, probes},
		{fakeSamples, fake, [][]float64{{0}, {5}, {11}}},
	}
	for _, p := range problems {
		name := "default-rbf"
		if p.kernel != nil {
			name = p.kernel.String()
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Nu: 0.1, Kernel: p.kernel}
			want, err := trainReference(densify(p.sparse), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got *Model
			for bname, budget := range oracleBudgets {
				cfg.CacheBytes = budget
				if got, err = TrainSparse(p.sparse, cfg); err != nil {
					t.Fatal(err)
				}
				sameModelBits(t, bname, want, got)
			}
			// Out-of-sample decisions against dense evaluation.
			for _, x := range p.probes {
				if d, dd := got.Decision(x), denseDecision(want, x); d != dd {
					t.Fatalf("Decision %v != dense evaluation %v", d, dd)
				}
			}
		})
	}
}

// TestTrainingDecisionsMatchDecision verifies Gram-reuse scoring: the
// cached per-training-row decisions must equal fresh Decision evaluations
// bit-for-bit.
func TestTrainingDecisionsMatchDecision(t *testing.T) {
	rng := randx.New(7)
	samples := cluster(rng, 80, []float64{1, 2, 3}, 0.5)
	m, err := TrainSparse(sparsify(samples), Config{Nu: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	dec := m.TrainingDecisions()
	if len(dec) != len(samples) {
		t.Fatalf("TrainingDecisions has %d entries, want %d", len(dec), len(samples))
	}
	for i, s := range samples {
		if want := m.Decision(s); dec[i] != want {
			t.Fatalf("training decision %d = %v, Decision = %v", i, dec[i], want)
		}
	}
	// The returned slice is a copy: mutating it must not poison the cache.
	dec[0] = 12345
	if again := m.TrainingDecisions(); again[0] == 12345 {
		t.Fatal("TrainingDecisions returned the internal slice, not a copy")
	}
}

// TestParallelGramDeterministic trains the same batch at several
// parallelism settings; every model must equal the sequential per-sample
// oracle's, because kernel cells are computed independently of
// scheduling.
func TestParallelGramDeterministic(t *testing.T) {
	rng := randx.New(3)
	sparse := sparseCluster(rng, 70, 50)
	want, err := trainReference(densify(sparse), Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 7, 16} {
		for bname, budget := range oracleBudgets {
			m, err := TrainSparse(sparse, Config{Nu: 0.1, Parallelism: par, CacheBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			sameModelBits(t, fmt.Sprintf("parallelism=%d/%s", par, bname), want, m)
		}
	}
}

func TestSparseKernelMatchesDense(t *testing.T) {
	rng := randx.New(11)
	pts := sparseCluster(rng, 10, 30)
	kernels := []SparseKernel{
		RBF{Gamma: 0.4},
		Linear{},
		Poly{Gamma: 0.2, Coef0: 1, Degree: 3},
	}
	for _, k := range kernels {
		for i := range pts {
			for j := range pts {
				ds := k.EvalSparse(pts[i], pts[j])
				dd := k.Eval(pts[i].Dense(), pts[j].Dense())
				if ds != dd {
					t.Fatalf("%s: EvalSparse %v != Eval %v", k.String(), ds, dd)
				}
			}
		}
	}
}
