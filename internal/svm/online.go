package svm

import (
	"sentomist/internal/stats"
)

// Incremental trains a one-class ν-SVM repeatedly over a growing sample
// stream. Every Refit is an exact cold solve: it equals TrainSparse over
// the same batch, bit for bit — coefficients, ρ, training decisions and
// iteration count. What carries over between refits is only what makes
// that cold solve cheaper without changing it:
//
//   - the dedup state — new samples join existing groups or open new ones
//     numbered after the old, exactly as a one-shot dedup of the full
//     batch numbers them;
//   - the LRU kernel-column cache — a cached column holds one cell per
//     distinct sample (group) and is extended in place, lazily, the first
//     time the new solve touches it, so only (new group × touched column)
//     kernel evaluations are paid. The cells are exact: a carried column
//     holds the very float64 values a fresh fill computes (see
//     sparseColSource.evalFrom), and the solver's path depends only on the
//     cells, so the cache state never changes a result.
//
// The carry-over is sound only while the already-seen prefix of the batch
// stays bitwise identical between refits; the caller signals that with
// prefixValid, which only decides whether cached columns carry over.
// Online mining rescales features as new minima/maxima arrive, so
// core.OnlineMiner passes prefixValid=false whenever the effective scale
// changed, which drops the cache (values moved).
type Incremental struct {
	cfg     Config
	src     *sparseColSource
	cache   *colCache
	prevLen int
	prevDim int

	// Rebuilds counts how many refits had to discard the dedup/cache
	// state (first fit, invalid prefix, or a shrunk batch).
	Rebuilds int
}

// NewIncremental returns an incremental trainer. The config is fixed for
// the trainer's lifetime, except for ν (see SetNu).
func NewIncremental(cfg Config) *Incremental {
	return &Incremental{cfg: cfg}
}

// SetNu updates ν for subsequent refits. The ν-feasibility clamp ν ≥ 1/l
// moves as an online stream grows, so callers tracking it adjust here;
// every refit is a cold solve, so any value in (0,1] is safe mid-stream.
func (inc *Incremental) SetNu(nu float64) { inc.cfg.Nu = nu }

// Refit fits the model to the full current batch with a cold solve that
// equals TrainSparse with the same config bit for bit. samples must
// contain every training sample, not just new arrivals; when prefixValid
// is true the first prevLen entries must be bitwise identical to the
// previous call's batch (backing arrays may differ), which is what lets
// the dedup state and cached kernel columns carry over. Pass
// prefixValid=false when earlier samples changed (e.g. a feature rescale)
// — the dedup state and cache are rebuilt.
func (inc *Incremental) Refit(samples []stats.Sparse, prefixValid bool) (*Model, error) {
	kernel, err := inc.cfg.kernelFor(samples)
	if err != nil {
		return nil, err
	}
	l, dim := len(samples), samples[0].Dim
	if !prefixValid || inc.src == nil || l < inc.prevLen || dim != inc.prevDim {
		inc.Rebuilds++
		inc.src = newSparseColSource(samples, kernel, inc.cfg.workers())
		inc.cache = newColCache(inc.src, inc.cfg.cacheBytes())
	} else {
		inc.src.extendTo(samples)
		inc.cache.grow(inc.cfg.cacheBytes())
		// Per-refit hit/miss diagnostics are more useful than cumulative.
		inc.cache.hits, inc.cache.misses = 0, 0
	}
	inc.prevLen, inc.prevDim = l, dim

	m := solveFrom(inc.cache, inc.src.group, inc.src.distinct(), inc.cfg, kernel)
	for k := 0; k < l; k++ {
		if m.alpha[k] > 0 {
			m.sv = append(m.sv, samples[k])
		}
	}
	// The model retains the support vectors it needs; dropping the source's
	// batch reference lets the caller release or spill non-SV samples
	// between refits.
	inc.src.release()
	return finish(m)
}
