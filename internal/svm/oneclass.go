package svm

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"runtime"

	"sentomist/internal/stats"
)

// DefaultCacheBytes is the kernel column cache budget used when
// CacheBytes is zero.
const DefaultCacheBytes = 256 << 20

// Config parameterizes one-class training.
type Config struct {
	// Nu is the ν parameter: an upper bound on the fraction of training
	// points treated as outliers and a lower bound on the fraction of
	// support vectors. Must lie in (0, 1].
	Nu float64
	// Kernel defaults to RBF with gamma = 1/dim when nil. A kernel without
	// EvalSparse is evaluated on the densified pair.
	Kernel Kernel
	// Eps is the KKT violation tolerance; defaults to 1e-4.
	Eps float64
	// MaxIter bounds SMO iterations; defaults to 100·l (at least 10000).
	MaxIter int
	// Parallelism bounds the goroutines filling a kernel column on a
	// cache miss: 0 selects GOMAXPROCS, 1 forces sequential fills. The
	// resulting model is identical either way — each cell is computed
	// independently.
	Parallelism int
	// CacheBytes bounds the LRU of kernel columns the solver memoizes;
	// columns are computed on demand and at least two stay resident. Zero
	// selects DefaultCacheBytes. Columns hold one cell per distinct
	// sample, so a budget holds l/G times more of them when l samples
	// collapse to G distinct ones. Training is bit-identical at any
	// budget: a hit returns the very float64 evaluations a miss computes.
	CacheBytes int64
}

func (cfg Config) workers() int {
	if cfg.Parallelism > 0 {
		return cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (cfg Config) cacheBytes() int64 {
	if cfg.CacheBytes > 0 {
		return cfg.CacheBytes
	}
	return DefaultCacheBytes
}

// kernelFor validates a training batch (nonempty, ν in (0,1], one
// dimensionality) and returns the kernel to train it with: cfg.Kernel, or
// the per-dimension RBF default, adapted for sparse evaluation.
func (cfg Config) kernelFor(samples []stats.Sparse) (SparseKernel, error) {
	if len(samples) == 0 {
		return nil, ErrNoData
	}
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu=%g outside (0,1]", cfg.Nu)
	}
	dim := samples[0].Dim
	for i, s := range samples {
		if s.Dim != dim {
			return nil, fmt.Errorf("svm: sample %d has %d dims, want %d", i, s.Dim, dim)
		}
	}
	if cfg.Kernel == nil {
		return defaultKernel(dim), nil
	}
	if sk, ok := cfg.Kernel.(SparseKernel); ok {
		return sk, nil
	}
	return densified{cfg.Kernel}, nil
}

// densified adapts a kernel without EvalSparse by evaluating the densified
// pair.
type densified struct{ Kernel }

func (k densified) EvalSparse(a, b stats.Sparse) float64 { return k.Eval(a.Dense(), b.Dense()) }

// Model is a trained one-class SVM.
type Model struct {
	kernel SparseKernel
	// Support vectors with their dual coefficients (only αᵢ > 0 kept).
	sv    []stats.Sparse
	alpha []float64
	rho   float64
	// trainDec caches f(xₖ) for every training sample, computed from
	// the kernel columns at training time (see TrainingDecisions).
	trainDec []float64

	// Training diagnostics. Groups is how many distinct samples the
	// solver iterated over.
	Iters      int
	NumSV      int
	NumBoundSV int
	Groups     int
	// Kernel column cache diagnostics: column requests served from the
	// LRU vs computed, and the cache capacity in columns.
	CacheHits   int64
	CacheMisses int64
	CacheCols   int
}

// ErrNoData is returned when training is called without samples.
var ErrNoData = errors.New("svm: no training samples")

// TrainSparse fits a one-class ν-SVM on sparse samples: a cold first
// Refit of a fresh Incremental. Kernel evaluation costs O(nnz) per pair
// instead of O(dim), so training scales with how much of the space each
// sample actually touches, and samples with bit-identical contents share
// one kernel column. The built-in kernels evaluate sparse pairs
// bit-identically to their dense form, so the model — coefficients, ρ,
// and every decision value — matches per-sample training on the
// densified samples exactly.
func TrainSparse(samples []stats.Sparse, cfg Config) (*Model, error) {
	return NewIncremental(cfg).Refit(samples, false)
}

func defaultKernel(dim int) RBF {
	g := 1.0
	if dim > 0 {
		g = 1 / float64(dim)
	}
	return RBF{Gamma: g}
}

// solveFrom runs the SMO optimizer over a Gram-column provider and returns
// a partially-filled model (alpha, rho, diagnostics); the caller attaches
// the support vectors.
//
// The problem has l = len(group) samples in ng groups of bit-identical
// samples: group[k] is sample k's group, groups are numbered by first
// member, and p.col(g) is the length-ng column of group g against every
// group. Members of a group have bit-identical kernel columns, so the
// per-sample SMO gives them the same gradient and the same training
// decision, built from the same additions in the same order. The solver
// keeps one gradient per group and reproduces that per-sample SMO
// iteration by iteration; α stays per sample. Every sum accumulates in the
// same element order as the per-sample code, so the result is bit-identical
// at any cache size, and whether samples are grouped or each is its own
// group.
//
// Every solve starts cold, at the LIBSVM prefix initialization, so the
// result depends only on the kernel cells: an online refit over carried
// columns equals a solve over freshly filled ones (see Incremental).
func solveFrom(p gramProvider, group []int, ng int, cfg Config, kernel SparseKernel) *Model {
	l := len(group)
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
	// Walking them in ascending sample order feeds each group's gradient
	// the same additions in the same order as the per-sample loop (Q is
	// symmetric cell-for-cell by construction): the historical prefix walk.
	grad := make([]float64, ng)
	for j := 0; j < l; j++ {
		if alpha[j] <= 0 {
			continue
		}
		cj := p.col(group[j])
		aj := alpha[j]
		for g := range grad {
			grad[g] += cj[g] * aj
		}
	}

	el := newEligibility(group, ng, alpha, c)
	up, down := el.up[:ng], el.down[:ng]
	iters := 0
	for ; iters < maxIter; iters++ {
		// Working-set selection (maximal violating pair):
		// i ∈ {α < C} minimizing Gᵢ, j ∈ {α > 0} maximizing Gⱼ. The
		// per-sample scan keeps the first sample reaching the extremum, so
		// exact ties between groups go to the lower eligible sample.
		var i, j int32 = -1, -1
		gmin, gmax := math.Inf(1), math.Inf(-1)
		for g, gr := range grad[:ng] {
			if k := up[g]; k >= 0 && gr <= gmin && (gr < gmin || k < i) {
				gmin, i = gr, k
			}
			if k := down[g]; k >= 0 && gr >= gmax && (gr > gmax || k < j) {
				gmax, j = gr, k
			}
		}
		if i < 0 || j < 0 || gmax-gmin < eps {
			break
		}

		gi, gj := group[i], group[j]
		ci, cj := p.col(gi), p.col(gj)
		eta := ci[gi] + cj[gj] - 2*ci[gj]
		var delta float64
		if eta > 1e-12 {
			delta = (grad[gj] - grad[gi]) / eta
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
		el.update(int(i), alpha[i])
		el.update(int(j), alpha[j])
		for g := range grad {
			grad[g] += delta * (ci[g] - cj[g])
		}
	}

	// ρ: at the optimum, free SVs satisfy Gᵢ = ρ.
	var freeSum float64
	var freeCnt, bound int
	lo, hi := math.Inf(-1), math.Inf(1)
	for k := 0; k < l; k++ {
		gk := grad[group[k]]
		switch {
		case alpha[k] <= 1e-12:
			if gk < hi {
				hi = gk
			}
		case alpha[k] >= c-1e-12:
			bound++
			if gk > lo {
				lo = gk
			}
		default:
			freeSum += gk
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

	// Score every group from the cached Gram columns and broadcast to its
	// members. Walking the SV columns in ascending training order feeds
	// each sum the same additions in the same order as fresh per-sample
	// evaluation, so the scores reproduce Decision bit-for-bit.
	dec := make([]float64, ng)
	for _, i := range svIdx {
		ci := p.col(group[i])
		ai := alpha[i]
		for g := range dec {
			dec[g] += ai * ci[g]
		}
	}
	trainDec := make([]float64, l)
	for k, g := range group {
		trainDec[k] = dec[g] - rho
	}

	m := &Model{
		kernel:     kernel,
		alpha:      alpha,
		rho:        rho,
		trainDec:   trainDec,
		Iters:      iters,
		NumBoundSV: bound,
		Groups:     ng,
	}
	if cache, ok := p.(*colCache); ok {
		m.CacheHits = cache.hits
		m.CacheMisses = cache.misses
		m.CacheCols = cache.capCols
	}
	return m
}

// eligibility tracks, for every group, its lowest member sample that may
// enter the working set on each side: up[g] is the lowest member with
// α < C−1e-15, down[g] the lowest with α > 1e-15, −1 when there is none. These are the samples the per-sample scan would
// meet first in the group. α changes at two samples per SMO iteration, so
// the members are kept in ascending order per group, with one bit per
// member and side, and a member leaving its side only costs a find-next
// over the group's bits.
type eligibility struct {
	group    []int
	c        float64
	start    []int   // group g's members are order[start[g]:start[g+1]]
	order    []int32 // samples grouped, ascending within a group
	pos      []int32 // sample -> its position in order
	upBits   []uint64
	downBits []uint64
	up, down []int32
}

func newEligibility(group []int, ng int, alpha []float64, c float64) *eligibility {
	l := len(group)
	e := &eligibility{
		group:    group,
		c:        c,
		start:    make([]int, ng+1),
		order:    make([]int32, l),
		pos:      make([]int32, l),
		upBits:   make([]uint64, (l+63)/64),
		downBits: make([]uint64, (l+63)/64),
		up:       make([]int32, ng),
		down:     make([]int32, ng),
	}
	for _, g := range group {
		e.start[g+1]++
	}
	for g := 0; g < ng; g++ {
		e.start[g+1] += e.start[g]
		e.up[g], e.down[g] = -1, -1
	}
	next := append([]int(nil), e.start[:ng]...)
	for k, g := range group {
		e.order[next[g]], e.pos[k] = int32(k), int32(next[g])
		next[g]++
	}
	for k, a := range alpha {
		e.update(k, a)
	}
	return e
}

// update records sample k's new coefficient a.
func (e *eligibility) update(k int, a float64) {
	g, p := e.group[k], int(e.pos[k])
	e.mark(e.upBits, &e.up[g], k, p, e.start[g+1], a < e.c-1e-15)
	e.mark(e.downBits, &e.down[g], k, p, e.start[g+1], a > 1e-15)
}

// mark sets or clears sample k's bit (position p, group ending at end) and
// keeps first, the group's lowest eligible sample on that side, current.
func (e *eligibility) mark(bits []uint64, first *int32, k, p, end int, on bool) {
	w, b := p>>6, uint64(1)<<(p&63)
	if on {
		bits[w] |= b
		if *first < 0 || int32(k) < *first {
			*first = int32(k)
		}
		return
	}
	bits[w] &^= b
	if int32(k) == *first {
		*first = -1
		if q := nextSet(bits, p+1, end); q >= 0 {
			*first = e.order[q]
		}
	}
}

// nextSet returns the lowest set position in [from, end), or −1.
func nextSet(bits []uint64, from, end int) int {
	for from < end {
		w := from >> 6
		if x := bits[w] >> (from & 63); x != 0 {
			if q := from + mathbits.TrailingZeros64(x); q < end {
				return q
			}
			return -1
		}
		from = (w + 1) << 6
	}
	return -1
}

// finish replaces alpha by a compacted copy holding the kept SVs'
// coefficients and fills the SV count.
func finish(m *Model) (*Model, error) {
	kept := make([]float64, 0, len(m.sv))
	for _, a := range m.alpha {
		if a > 0 {
			kept = append(kept, a)
		}
	}
	m.alpha = kept
	m.NumSV = len(m.sv)
	return m, nil
}

// Decision returns f(x) = Σᵢ αᵢK(xᵢ,x) − ρ: positive on the normal side of
// the boundary, negative outside, with magnitude growing with distance —
// exactly the score the paper ranks by (Section V-C1).
func (m *Model) Decision(x []float64) float64 {
	return m.DecisionSparse(stats.DenseToSparse(x))
}

// DecisionSparse is Decision for a sparse sample.
func (m *Model) DecisionSparse(x stats.Sparse) float64 {
	var s float64
	for i, v := range m.sv {
		s += m.alpha[i] * m.kernel.EvalSparse(v, x)
	}
	return s - m.rho
}

// TrainingDecisions returns f(xₖ) for every training sample, in training
// order. The values come from the kernel columns already computed during
// training — no kernel re-evaluation — and equal Decision(xₖ) bit-for-bit
// for symmetric kernels (every PSD kernel is). The slice is a copy;
// callers may mutate it.
func (m *Model) TrainingDecisions() []float64 {
	out := make([]float64, len(m.trainDec))
	copy(out, m.trainDec)
	return out
}

// Rho returns the trained offset.
func (m *Model) Rho() float64 { return m.rho }

// Kernel returns the kernel the model was trained with.
func (m *Model) Kernel() Kernel {
	if d, ok := m.kernel.(densified); ok {
		return d.Kernel
	}
	return m.kernel
}
