package svm

import (
	"math"
	"testing"

	"sentomist/internal/stats"
)

// groupPalette is the value set fuzzed counters draw from: a few repeated
// magnitudes, a negative, and both signed zeros (stored explicitly, so
// dedup keeps a +0 and a −0 counter as separate groups with identical
// kernel values).
var groupPalette = [...]float64{0, math.Copysign(0, -1), 0.5, 1, 1.5, 2, -1, 3}

// groupProblem decodes a duplicate-heavy sparse training set from fuzz
// bytes. data[0] sets the dimension (1–4), data[1] the number of distinct
// prototypes (1–6), data[2] the kernel (low two bits: RBF, Linear, a
// polynomial user kernel, a wider RBF) and the cache budget (next bits:
// two columns, half the groups, all).
// Then come dim bytes per prototype — low two bits zero leaves the index
// out, otherwise the next three bits pick the value — and finally one byte
// per sample naming its prototype (at most 96 samples, at least one).
func groupProblem(data []byte) (samples []stats.Sparse, kernel SparseKernel, budget int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dim := 1 + int(next()%4)
	protos := make([]stats.Sparse, 1+int(next()%6))
	sel := next()
	kernel = [...]SparseKernel{RBF{Gamma: 0.5}, Linear{}, polyKernel{Gamma: 0.5, Coef0: 1, Degree: 2}, RBF{Gamma: 3}}[sel%4]
	budget = int(sel>>2) % 3
	for p := range protos {
		s := stats.Sparse{Dim: dim}
		for d := 0; d < dim; d++ {
			if b := next(); b%4 != 0 {
				s.Idx = append(s.Idx, int32(d))
				s.Val = append(s.Val, groupPalette[(b>>2)%8])
			}
		}
		protos[p] = s
	}
	for _, b := range data[:min(len(data), 96)] {
		samples = append(samples, protos[int(b)%len(protos)])
	}
	if len(samples) == 0 {
		samples = append(samples, protos[0])
	}
	return samples, kernel, budget
}

// sameSolve asserts that got reproduces the reference solve bit for bit:
// every coefficient, ρ, every training decision, the iteration count and
// the bound-SV count.
func sameSolve(t *testing.T, label string, want, got *Model) {
	t.Helper()
	if want.Iters != got.Iters || want.NumBoundSV != got.NumBoundSV {
		t.Fatalf("%s: (iters=%d bound=%d), reference (iters=%d bound=%d)",
			label, got.Iters, got.NumBoundSV, want.Iters, want.NumBoundSV)
	}
	if !sameCell(want.rho, got.rho) {
		t.Fatalf("%s: rho %v, reference %v", label, got.rho, want.rho)
	}
	if len(want.alpha) != len(got.alpha) || len(want.trainDec) != len(got.trainDec) {
		t.Fatalf("%s: %d coefficients and %d decisions, reference %d and %d",
			label, len(got.alpha), len(got.trainDec), len(want.alpha), len(want.trainDec))
	}
	for k := range want.alpha {
		if !sameCell(want.alpha[k], got.alpha[k]) {
			t.Fatalf("%s: alpha %d: %v, reference %v", label, k, got.alpha[k], want.alpha[k])
		}
		if !sameCell(want.trainDec[k], got.trainDec[k]) {
			t.Fatalf("%s: decision %d: %v, reference %v", label, k, got.trainDec[k], want.trainDec[k])
		}
	}
}

// FuzzGroupSolve: the group-compressed solver reproduces the per-sample
// reference solver bit for bit on duplicate-heavy sparse sets, over the
// G×G matrix, the column cache at several budgets, and identity groups
// over the per-sample matrix. nuPct sets ν = (nuPct%100+1)/100.
//
// The working pair can never lie in one group: members share a gradient,
// so such a pair has a zero gap, below every ε, and both solvers stop.
// The corpus's mixed-group seeds pin that stop.
func FuzzGroupSolve(f *testing.F) {
	f.Add(uint8(9), []byte{0, 2, 0, 1, 5, 13, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, nuPct uint8, data []byte) {
		samples, kernel, budget := groupProblem(data)
		l := len(samples)
		cfg := Config{Nu: float64(nuPct%100+1) / 100, Kernel: kernel, Parallelism: 1}
		want, err := solveReference(perSampleGram(samples, kernel), l, cfg, kernel)
		if err != nil {
			t.Fatal(err)
		}

		src := newSparseColSource(samples, kernel, 1)
		ng := src.distinct()
		got := solveFrom(groupGram(src), src.group, ng, cfg, kernel)
		if got.Groups != ng {
			t.Fatalf("Groups = %d, want %d", got.Groups, ng)
		}
		sameSolve(t, "group matrix", want, got)

		budgetBytes := [...]int64{1, int64(8 * ng * max(ng/2, 1)), math.MaxInt64}[budget]
		sameSolve(t, "column cache", want, solveFrom(newColCache(src, budgetBytes), src.group, ng, cfg, kernel))

		identity := make([]int, l)
		for k := range identity {
			identity[k] = k
		}
		sameSolve(t, "identity groups", want, solveFrom(perSampleGram(samples, kernel), identity, l, cfg, kernel))
	})
}
