package svm

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"sentomist/internal/stats"
)

// DefaultCacheBytes is the kernel column cache budget used when the dense
// Gram is oversized and CacheBytes is zero.
const DefaultCacheBytes = 256 << 20

// denseGramLimit bounds the dense path's l×l allocation (bytes). Problems
// past it route to the cached path. A variable so tests can lower it
// without 50k-sample inputs.
var denseGramLimit int64 = 1 << 30

// Config parameterizes one-class training.
type Config struct {
	// Nu is the ν parameter: an upper bound on the fraction of training
	// points treated as outliers and a lower bound on the fraction of
	// support vectors. Must lie in (0, 1].
	Nu float64
	// Kernel defaults to RBF with gamma = 1/dim when nil.
	Kernel Kernel
	// Eps is the KKT violation tolerance; defaults to 1e-4.
	Eps float64
	// MaxIter bounds SMO iterations; defaults to 100·l (at least 10000).
	MaxIter int
	// Parallelism bounds the goroutines building the Gram matrix (dense
	// path) or filling cache-miss columns (cached path): 0 selects
	// GOMAXPROCS, 1 forces sequential construction. The resulting model
	// is identical either way — each cell is computed independently.
	Parallelism int
	// CacheBytes > 0 selects the cached path: kernel columns are computed
	// on demand and memoized in an LRU bounded by CacheBytes (at least two
	// columns stay resident). At zero the full Gram over the distinct
	// samples (TrainSparse deduplicates, Train does not) is materialized,
	// unless it exceeds the dense budget, in which case the cached path
	// runs with DefaultCacheBytes. Columns hold one cell per distinct
	// sample, so a budget holds l/G times more of them when l samples
	// collapse to G distinct ones. Training is bit-identical either way:
	// the cache memoizes the very float64 evaluations the dense build
	// stores.
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

// denseGramOversized reports whether an l×l float64 matrix would overflow
// int or exceed the dense budget.
func denseGramOversized(l int) bool {
	if l == 0 {
		return false
	}
	return int64(l) > denseGramLimit/(8*int64(l))
}

// useCache decides the Gram access path for a problem with g distinct
// columns: the solver works on the g×g matrix of distinct samples.
func (cfg Config) useCache(g int) bool {
	return cfg.CacheBytes > 0 || denseGramOversized(g)
}

// Model is a trained one-class SVM.
type Model struct {
	kernel Kernel
	// Support vectors in exactly one representation (dense when trained
	// via Train, sparse via TrainSparse), with their dual coefficients
	// (only αᵢ > 0 kept).
	sv       [][]float64
	svSparse []stats.Sparse
	alpha    []float64
	rho      float64
	// trainDec caches f(xₖ) for every training sample, computed from
	// the Gram matrix at training time (see TrainingDecisions).
	trainDec []float64

	// Training diagnostics. Groups is how many distinct samples the
	// solver iterated over (the training-set size for dense Train, which
	// does not deduplicate).
	Iters      int
	NumSV      int
	NumBoundSV int
	Groups     int
	// Cached-path diagnostics: column requests served from the LRU vs
	// computed, and the cache capacity in columns. All zero on the dense
	// path.
	CacheHits   int64
	CacheMisses int64
	CacheCols   int
}

// ErrNoData is returned when Train is called without samples.
var ErrNoData = errors.New("svm: no training samples")

// Train fits a one-class ν-SVM on the samples. The sample slices are
// referenced, not copied; callers must not mutate them afterwards.
func Train(samples [][]float64, cfg Config) (*Model, error) {
	l := len(samples)
	if l == 0 {
		return nil, ErrNoData
	}
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu=%g outside (0,1]", cfg.Nu)
	}
	dim := len(samples[0])
	for i, s := range samples {
		if len(s) != dim {
			return nil, fmt.Errorf("svm: sample %d has %d dims, want %d", i, len(s), dim)
		}
	}
	kernel := cfg.Kernel
	if kernel == nil {
		kernel = defaultKernel(dim)
	}
	var p gramProvider
	if cfg.useCache(l) {
		p = newColCache(&denseColSource{samples: samples, kernel: kernel, workers: cfg.workers()}, cfg.cacheBytes())
	} else {
		p = denseMatrix(gramDense(samples, kernel, cfg.workers()))
	}
	group := make([]int, l)
	for k := range group {
		group[k] = k
	}
	m, err := solve(p, group, l, cfg, kernel)
	if err != nil {
		return nil, err
	}
	for k := 0; k < l; k++ {
		if m.alpha[k] > 0 {
			m.sv = append(m.sv, samples[k])
		}
	}
	return finish(m)
}

// TrainSparse fits a one-class ν-SVM on sparse samples. Kernel evaluation
// costs O(nnz) per pair instead of O(dim), so training scales with how much
// of the space each sample actually touches. The built-in kernels evaluate
// sparse pairs bit-identically to their dense form, so the model —
// coefficients, ρ, and every decision value — matches Train on the
// densified samples exactly. A non-nil cfg.Kernel that does not implement
// SparseKernel falls back to densifying the samples and calling Train.
func TrainSparse(samples []stats.Sparse, cfg Config) (*Model, error) {
	l := len(samples)
	if l == 0 {
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
	kernel := cfg.Kernel
	if kernel == nil {
		kernel = defaultKernel(dim)
	}
	sk, ok := kernel.(SparseKernel)
	if !ok {
		dense := make([][]float64, l)
		for i, s := range samples {
			dense[i] = s.Dense()
		}
		return Train(dense, cfg)
	}
	src := newSparseColSource(samples, sk, cfg.workers())
	var p gramProvider
	if cfg.useCache(src.distinct()) {
		p = newColCache(src, cfg.cacheBytes())
	} else {
		p = denseMatrix(gramSparse(samples, src.reps, sk, cfg.workers()))
	}
	m, err := solve(p, src.group, src.distinct(), cfg, kernel)
	if err != nil {
		return nil, err
	}
	for k := 0; k < l; k++ {
		if m.alpha[k] > 0 {
			m.svSparse = append(m.svSparse, samples[k])
		}
	}
	return finish(m)
}

func defaultKernel(dim int) Kernel {
	g := 1.0
	if dim > 0 {
		g = 1 / float64(dim)
	}
	return RBF{Gamma: g}
}

// gramDense builds the full symmetric kernel matrix. Rows of the lower
// triangle are handed to workers via an atomic counter; cells are written
// to disjoint locations, so the result is independent of scheduling.
func gramDense(samples [][]float64, kernel Kernel, workers int) [][]float64 {
	return buildGram(len(samples), workers, func(i, j int) float64 {
		return kernel.Eval(samples[i], samples[j])
	})
}

// gramSparse is gramDense over the distinct sparse samples: event-handling
// intervals overwhelmingly repeat the same code path, so a batch of l
// samples typically holds only a handful of distinct vectors. reps lists the
// first sample of each distinct vector (see sparseColSource), and the result
// is the g×g matrix over them — g²/2 kernel evaluations instead of l²/2. The
// solver works on this matrix directly, one gradient per distinct vector.
func gramSparse(samples []stats.Sparse, reps []int, kernel SparseKernel, workers int) [][]float64 {
	return buildGram(len(reps), workers, func(a, b int) float64 {
		return kernel.EvalSparse(samples[reps[a]], samples[reps[b]])
	})
}

func buildGram(l, workers int, eval func(i, j int) float64) [][]float64 {
	q := make([][]float64, l)
	cells := make([]float64, l*l)
	for i := range q {
		q[i] = cells[i*l : (i+1)*l : (i+1)*l]
	}
	fill := func(i int) {
		for j := 0; j <= i; j++ {
			v := eval(i, j)
			q[i][j] = v
			q[j][i] = v
		}
	}
	if workers <= 1 || l < 2 {
		for i := 0; i < l; i++ {
			fill(i)
		}
		return q
	}
	// Row i of the lower triangle holds i+1 cells, so handing out bare
	// rows gives late workers quadratically heavier work. Hand out the
	// pair (t, l−1−t) instead: every unit covers (t+1) + (l−t) = l+1
	// cells, so the atomic counter deals near-identical loads no matter
	// which worker draws which ticket. Cells are still written to
	// disjoint locations — output is unchanged.
	half := (l + 1) / 2
	if workers > half {
		workers = half
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= half {
					return
				}
				fill(t)
				if other := l - 1 - t; other != t {
					fill(other)
				}
			}
		}()
	}
	wg.Wait()
	return q
}

// solve runs the SMO optimizer over a Gram-column provider and returns a
// partially-filled model (alpha, rho, diagnostics); the caller attaches
// the support-vector representation.
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
// whether p materializes the matrix or memoizes columns at any cache size,
// and whether samples are grouped or each is its own group.
func solve(p gramProvider, group []int, ng int, cfg Config, kernel Kernel) (*Model, error) {
	return solveFrom(p, group, ng, cfg, kernel, nil)
}

// solveFrom is solve with an optional warm start: when warm is non-nil it
// must be a feasible point of the dual (0 ≤ αᵢ ≤ 1/(νl), Σα = 1, length l)
// and optimization starts there instead of at the LIBSVM prefix
// initialization. A warm start never changes what termination means — the
// full problem satisfies the same ε tolerance — it only changes how many
// iterations reaching it takes, so a warm start at the previous optimum of
// the *same* problem converges immediately to the bit-identical solution,
// and a warm start on a grown problem lands on the same ε-optimum a cold
// solve finds (equal up to solver tolerance, not bitwise).
func solveFrom(p gramProvider, group []int, ng int, cfg Config, kernel Kernel, warm []float64) (*Model, error) {
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		return nil, fmt.Errorf("svm: nu=%g outside (0,1]", cfg.Nu)
	}
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
	if warm != nil {
		if len(warm) != l {
			return nil, fmt.Errorf("svm: warm start has %d coefficients, want %d", len(warm), l)
		}
		copy(alpha, warm)
	} else {
		// LIBSVM-style initialization: put total mass 1 on the first ⌈νl⌉
		// points, the last one fractionally.
		remaining := 1.0
		for i := 0; i < l && remaining > 0; i++ {
			a := math.Min(c, remaining)
			alpha[i] = a
			remaining -= a
		}
	}

	// Gradient of ½αᵀQα is Qα: only columns carrying mass contribute.
	// Walking them in ascending sample order feeds each group's gradient
	// the same additions in the same order as the per-sample loop (Q is
	// symmetric cell-for-cell by construction); for the cold prefix
	// initialization this is exactly the historical prefix walk, so cold
	// solves stay bit-identical.
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
	return m, nil
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

// finish compacts alpha to the kept SVs and fills the SV count.
func finish(m *Model) (*Model, error) {
	kept := m.alpha[:0]
	for _, a := range m.alpha {
		if a > 0 {
			kept = append(kept, a)
		}
	}
	m.alpha = kept
	m.NumSV = len(m.sv) + len(m.svSparse)
	return m, nil
}

// Decision returns f(x) = Σᵢ αᵢK(xᵢ,x) − ρ: positive on the normal side of
// the boundary, negative outside, with magnitude growing with distance —
// exactly the score the paper ranks by (Section V-C1).
func (m *Model) Decision(x []float64) float64 {
	if m.svSparse != nil {
		return m.DecisionSparse(stats.DenseToSparse(x))
	}
	var s float64
	for i, v := range m.sv {
		s += m.alpha[i] * m.kernel.Eval(v, x)
	}
	return s - m.rho
}

// DecisionSparse is Decision for a sparse sample.
func (m *Model) DecisionSparse(x stats.Sparse) float64 {
	if m.svSparse == nil {
		return m.Decision(x.Dense())
	}
	sk := m.kernel.(SparseKernel)
	var s float64
	for i, v := range m.svSparse {
		s += m.alpha[i] * sk.EvalSparse(v, x)
	}
	return s - m.rho
}

// DecisionFromGram returns f(x) given the precomputed kernel column
// kcol[i] = K(svᵢ, x) over the model's support vectors in order — the
// batch-scoring path for callers that already hold kernel products (e.g. a
// cached Gram matrix) and need no fresh evaluations.
func (m *Model) DecisionFromGram(kcol []float64) float64 {
	if len(kcol) != len(m.alpha) {
		panic(fmt.Sprintf("svm: DecisionFromGram column has %d entries, want NumSV=%d", len(kcol), len(m.alpha)))
	}
	var s float64
	for i, a := range m.alpha {
		s += a * kcol[i]
	}
	return s - m.rho
}

// TrainingDecisions returns f(xₖ) for every training sample, in training
// order. The values come from the Gram matrix already built during
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
func (m *Model) Kernel() Kernel { return m.kernel }
