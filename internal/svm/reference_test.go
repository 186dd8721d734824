package svm

import (
	"fmt"
	"math"

	"sentomist/internal/stats"
)

// solveReference is the per-sample SMO solver the group-compressed
// solveFrom replaced, kept verbatim as a differential oracle: it runs every
// loop over all l samples and reads l-length per-sample columns, col(j)[k]
// == Q[k][j]. solveFrom must reproduce it bit for bit — α, ρ, training
// decisions, iteration count and bound-SV count.
func solveReference(p gramProvider, l int, cfg Config, kernel SparseKernel) (*Model, error) {
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu=%g outside (0,1]", cfg.Nu)
	}
	eps := cfg.Eps
	if eps <= 0 {
		eps = 1e-4
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100 * l
		if maxIter < 10000 {
			maxIter = 10000
		}
	}

	c := 1 / (cfg.Nu * float64(l))
	alpha := make([]float64, l)
	// LIBSVM-style initialization: put total mass 1 on the first ⌈νl⌉
	// points, the last one fractionally.
	remaining := 1.0
	for i := 0; i < l && remaining > 0; i++ {
		a := math.Min(c, remaining)
		alpha[i] = a
		remaining -= a
	}

	// Gradient of ½αᵀQα is Qα: only columns carrying mass contribute.
	// Walking them in ascending order feeds each grad[i] the same
	// additions in the same order as the historical row-based loop (Q is
	// symmetric cell-for-cell by construction).
	grad := make([]float64, l)
	for j := 0; j < l; j++ {
		if alpha[j] <= 0 {
			continue
		}
		cj := p.col(j)
		aj := alpha[j]
		for i := 0; i < l; i++ {
			grad[i] += cj[i] * aj
		}
	}

	iters := 0
	for ; iters < maxIter; iters++ {
		// Working-set selection (maximal violating pair):
		// i ∈ {α < C} minimizing Gᵢ, j ∈ {α > 0} maximizing Gⱼ.
		i, j := -1, -1
		gmin, gmax := math.Inf(1), math.Inf(-1)
		for k := 0; k < l; k++ {
			if alpha[k] < c-1e-15 && grad[k] < gmin {
				gmin = grad[k]
				i = k
			}
			if alpha[k] > 1e-15 && grad[k] > gmax {
				gmax = grad[k]
				j = k
			}
		}
		if i < 0 || j < 0 || gmax-gmin < eps {
			break
		}

		ci, cj := p.col(i), p.col(j)
		eta := ci[i] + cj[j] - 2*ci[j]
		var delta float64
		if eta > 1e-12 {
			delta = (grad[j] - grad[i]) / eta
		} else {
			delta = math.Inf(1)
		}
		if room := c - alpha[i]; delta > room {
			delta = room
		}
		if delta > alpha[j] {
			delta = alpha[j]
		}
		if delta <= 0 {
			break
		}
		alpha[i] += delta
		alpha[j] -= delta
		for k := 0; k < l; k++ {
			grad[k] += delta * (ci[k] - cj[k])
		}
	}

	// ρ: at the optimum, free SVs satisfy Gᵢ = ρ.
	var freeSum float64
	var freeCnt, bound int
	lo, hi := math.Inf(-1), math.Inf(1)
	for k := 0; k < l; k++ {
		switch {
		case alpha[k] <= 1e-12:
			if grad[k] < hi {
				hi = grad[k]
			}
		case alpha[k] >= c-1e-12:
			bound++
			if grad[k] > lo {
				lo = grad[k]
			}
		default:
			freeSum += grad[k]
			freeCnt++
		}
	}
	var rho float64
	if freeCnt > 0 {
		rho = freeSum / float64(freeCnt)
	} else {
		switch {
		case math.IsInf(lo, -1):
			rho = hi
		case math.IsInf(hi, 1):
			rho = lo
		default:
			rho = (lo + hi) / 2
		}
	}

	// Zero the below-threshold coefficients so the caller's SV filter
	// and the Gram-reuse scoring below agree on the SV set.
	svIdx := make([]int, 0, l)
	for k := 0; k < l; k++ {
		if alpha[k] > 1e-12 {
			svIdx = append(svIdx, k)
		} else {
			alpha[k] = 0
		}
	}

	// Score every training row from its cached Gram column. Walking the
	// SV columns in ascending training order feeds each row's sum the
	// same additions in the same order as fresh per-row evaluation, so
	// the scores reproduce Decision bit-for-bit.
	trainDec := make([]float64, l)
	for _, i := range svIdx {
		ci := p.col(i)
		ai := alpha[i]
		for k := 0; k < l; k++ {
			trainDec[k] += ai * ci[k]
		}
	}
	for k := 0; k < l; k++ {
		trainDec[k] -= rho
	}

	m := &Model{
		kernel:     kernel,
		alpha:      alpha,
		rho:        rho,
		trainDec:   trainDec,
		Iters:      iters,
		NumBoundSV: bound,
	}
	if cache, ok := p.(*colCache); ok {
		m.CacheHits = cache.hits
		m.CacheMisses = cache.misses
		m.CacheCols = cache.capCols
	}
	return m, nil
}

// denseMatrix is a fully materialized symmetric Gram matrix: the stored
// rows mirror the upper and lower triangle, so row j IS column j.
type denseMatrix [][]float64

func (q denseMatrix) col(j int) []float64 { return q[j] }

// buildGram materializes the l×l matrix of eval, sequentially. Cell (i, j)
// and its mirror (j, i) both hold eval(i, j) for i ≥ j: the larger index
// goes first, the orientation the column cache's cells follow.
func buildGram(l int, eval func(i, j int) float64) denseMatrix {
	q := make(denseMatrix, l)
	cells := make([]float64, l*l)
	for i := range q {
		q[i] = cells[i*l : (i+1)*l : (i+1)*l]
	}
	for i := 0; i < l; i++ {
		for j := 0; j <= i; j++ {
			v := eval(i, j)
			q[i][j] = v
			q[j][i] = v
		}
	}
	return q
}

// perSampleGram is the l×l per-sample Gram matrix solveReference reads,
// built pairwise over the samples with no duplicate collapsing. The
// built-in kernels are symmetric bit for bit, so every cell equals the
// group matrix's cell for the two samples' groups.
func perSampleGram(samples []stats.Sparse, kernel SparseKernel) denseMatrix {
	return buildGram(len(samples), func(i, j int) float64 {
		return kernel.EvalSparse(samples[i], samples[j])
	})
}

// groupGram is the G×G matrix over the distinct samples of src, the one
// the column cache serves column by column.
func groupGram(src *sparseColSource) denseMatrix {
	return buildGram(src.distinct(), func(a, b int) float64 {
		return src.kernel.EvalSparse(src.samples[src.reps[a]], src.samples[src.reps[b]])
	})
}

// trainReference is the per-sample training oracle TrainSparse must match
// bit for bit: no duplicate collapsing, no column cache, and every cell
// evaluated by Kernel.Eval on the dense samples, then the per-sample
// solver. The kernel defaults as in TrainSparse; the support vectors are
// kept sparse so the model scores like a trained one.
func trainReference(dense [][]float64, cfg Config) (*Model, error) {
	sparse := make([]stats.Sparse, len(dense))
	for i, v := range dense {
		sparse[i] = stats.DenseToSparse(v)
	}
	kernel, err := cfg.kernelFor(sparse)
	if err != nil {
		return nil, err
	}
	eval := cfg.Kernel
	if eval == nil {
		eval = kernel
	}
	q := buildGram(len(dense), func(i, j int) float64 { return eval.Eval(dense[i], dense[j]) })
	m, err := solveReference(q, len(dense), cfg, kernel)
	if err != nil {
		return nil, err
	}
	for k, a := range m.alpha {
		if a > 0 {
			m.sv = append(m.sv, sparse[k])
		}
	}
	return finish(m)
}
