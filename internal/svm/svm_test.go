package svm

import (
	"fmt"
	"math"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// cluster generates n points around center with the given spread.
func cluster(rng *randx.RNG, n int, center []float64, spread float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, len(center))
		for d := range p {
			p[d] = center[d] + rng.NormFloat64()*spread
		}
		out[i] = p
	}
	return out
}

func TestKernels(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	rbf := RBF{Gamma: 0.5}
	if got := rbf.Eval(a, a); got != 1 {
		t.Errorf("RBF(x,x) = %v, want 1", got)
	}
	if got := rbf.Eval(a, b); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("RBF = %v, want e^-1", got)
	}
	if got := (Linear{}).Eval([]float64{2, 3}, []float64{4, 5}); got != 23 {
		t.Errorf("Linear = %v", got)
	}
	poly := polyKernel{Gamma: 1, Coef0: 1, Degree: 2}
	if got := poly.Eval([]float64{1, 1}, []float64{1, 1}); got != 9 {
		t.Errorf("poly = %v, want 9", got)
	}
}

// polyKernel is the polynomial kernel (gamma·aᵀb + coef0)^degree. It is
// not built in, so the column source evaluates it cell by cell through
// EvalSparse: the path every user-supplied kernel takes.
type polyKernel struct {
	Gamma  float64
	Coef0  float64
	Degree int
}

func (k polyKernel) Eval(a, b []float64) float64 { return k.ofDot(stats.Dot(a, b)) }

func (k polyKernel) EvalSparse(a, b stats.Sparse) float64 { return k.ofDot(stats.SparseDot(a, b)) }

func (k polyKernel) ofDot(d float64) float64 {
	return math.Pow(k.Gamma*d+k.Coef0, float64(k.Degree))
}

func (k polyKernel) String() string {
	return fmt.Sprintf("poly(gamma=%g, coef0=%g, degree=%d)", k.Gamma, k.Coef0, k.Degree)
}

func TestKernelSymmetryAndBound(t *testing.T) {
	rng := randx.New(5)
	k := RBF{Gamma: 0.7}
	for i := 0; i < 200; i++ {
		a := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		b := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ab, ba := k.Eval(a, b), k.Eval(b, a)
		if ab != ba {
			t.Fatalf("RBF not symmetric: %v vs %v", ab, ba)
		}
		if ab <= 0 || ab > 1 {
			t.Fatalf("RBF out of (0,1]: %v", ab)
		}
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := TrainSparse(nil, Config{Nu: 0.5}); err == nil {
		t.Error("empty training set accepted")
	}
	samples := [][]float64{{1, 2}, {3}}
	if _, err := TrainSparse(sparsify(samples), Config{Nu: 0.5}); err == nil {
		t.Error("ragged samples accepted")
	}
	if _, err := TrainSparse(sparsify([][]float64{{1}}), Config{Nu: 0}); err == nil {
		t.Error("nu=0 accepted")
	}
	if _, err := TrainSparse(sparsify([][]float64{{1}}), Config{Nu: 1.5}); err == nil {
		t.Error("nu>1 accepted")
	}
}

func TestOutlierScoresBelowInliers(t *testing.T) {
	rng := randx.New(1)
	samples := cluster(rng, 100, []float64{0, 0, 0}, 0.3)
	outlier := []float64{6, 6, 6}
	samples = append(samples, outlier)
	m, err := TrainSparse(sparsify(samples), Config{Nu: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	outScore := m.Decision(outlier)
	better := 0
	for _, s := range samples[:100] {
		if m.Decision(s) > outScore {
			better++
		}
	}
	if better < 99 {
		t.Fatalf("only %d/100 inliers scored above the outlier", better)
	}
	if outScore >= 0 {
		t.Fatalf("outlier on the normal side: %v", outScore)
	}
}

func TestDecisionMonotoneInDistance(t *testing.T) {
	rng := randx.New(2)
	samples := cluster(rng, 80, []float64{0, 0}, 0.5)
	m, err := TrainSparse(sparsify(samples), Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, r := range []float64{0, 1, 2, 4, 8} {
		score := m.Decision([]float64{r, 0})
		if score > prev+1e-9 {
			t.Fatalf("score rose with distance at r=%v: %v > %v", r, score, prev)
		}
		prev = score
	}
}

// TestDualConstraints checks the KKT box and simplex constraints of the
// trained dual: 0 <= alpha_i <= 1/(nu*l) and sum(alpha) == 1.
func TestDualConstraints(t *testing.T) {
	rng := randx.New(3)
	for _, nu := range []float64{0.02, 0.1, 0.3, 0.7} {
		samples := cluster(rng, 60, []float64{1, 2, 3}, 1.0)
		m, err := TrainSparse(sparsify(samples), Config{Nu: nu})
		if err != nil {
			t.Fatal(err)
		}
		c := 1 / (nu * float64(len(samples)))
		var sum float64
		for _, a := range m.alpha {
			if a < -1e-12 || a > c+1e-9 {
				t.Fatalf("nu=%v: alpha %v outside [0, %v]", nu, a, c)
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("nu=%v: sum(alpha) = %v", nu, sum)
		}
	}
}

// TestNuControlsOutlierFraction: the fraction of training points with
// negative decision values is bounded by roughly nu (the ν-property).
func TestNuControlsOutlierFraction(t *testing.T) {
	rng := randx.New(4)
	samples := cluster(rng, 200, []float64{0, 0}, 1.0)
	for _, nu := range []float64{0.05, 0.2, 0.5} {
		m, err := TrainSparse(sparsify(samples), Config{Nu: nu})
		if err != nil {
			t.Fatal(err)
		}
		neg := 0
		for _, s := range samples {
			if m.Decision(s) < 0 {
				neg++
			}
		}
		frac := float64(neg) / float64(len(samples))
		if frac > nu+0.08 {
			t.Errorf("nu=%v: %.2f of training points outside", nu, frac)
		}
		// The number of support vectors is at least ~nu*l.
		if float64(m.NumSV) < nu*float64(len(samples))-1 {
			t.Errorf("nu=%v: only %d SVs", nu, m.NumSV)
		}
	}
}

func TestDefaultKernelGamma(t *testing.T) {
	samples := [][]float64{{0, 0, 0, 0}, {1, 1, 1, 1}, {0, 1, 0, 1}}
	m, err := TrainSparse(sparsify(samples), Config{Nu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rbf, ok := m.Kernel().(RBF)
	if !ok {
		t.Fatalf("default kernel %T", m.Kernel())
	}
	if rbf.Gamma != 0.25 {
		t.Fatalf("default gamma %v, want 1/dim", rbf.Gamma)
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	rng := randx.New(6)
	samples := cluster(rng, 50, []float64{0, 0}, 1)
	m1, err := TrainSparse(sparsify(samples), Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainSparse(sparsify(samples), Config{Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Rho() != m2.Rho() || m1.NumSV != m2.NumSV {
		t.Fatal("training not deterministic")
	}
	probe := []float64{0.3, -0.2}
	if m1.Decision(probe) != m2.Decision(probe) {
		t.Fatal("decisions differ between identical trainings")
	}
}

func TestSingleSample(t *testing.T) {
	m, err := TrainSparse(sparsify([][]float64{{1, 2}}), Config{Nu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSV != 1 {
		t.Fatalf("NumSV = %d", m.NumSV)
	}
	// The lone training point sits on the boundary: decision ~ 0.
	if d := m.Decision([]float64{1, 2}); math.Abs(d) > 1e-9 {
		t.Fatalf("decision at the sole sample %v", d)
	}
	if d := m.Decision([]float64{9, 9}); d >= 0 {
		t.Fatalf("far point on the normal side: %v", d)
	}
}

func TestIdenticalSamples(t *testing.T) {
	samples := make([][]float64, 20)
	for i := range samples {
		samples[i] = []float64{3, 3}
	}
	m, err := TrainSparse(sparsify(samples), Config{Nu: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Decision([]float64{3, 3}); math.Abs(d) > 1e-6 {
		t.Fatalf("decision at the duplicated point %v", d)
	}
	if d := m.Decision([]float64{30, 30}); d >= 0 {
		t.Fatalf("distant point scored normal: %v", d)
	}
}

func TestLinearKernelSeparation(t *testing.T) {
	rng := randx.New(8)
	samples := cluster(rng, 60, []float64{5, 5}, 0.5)
	m, err := TrainSparse(sparsify(samples), Config{Nu: 0.1, Kernel: Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	// With a linear kernel, the origin side is the outlier side
	// (the formulation separates data from the origin).
	if m.Decision([]float64{0, 0}) >= m.Decision([]float64{5, 5}) {
		t.Fatal("origin not more outlying than the cluster center")
	}
}
