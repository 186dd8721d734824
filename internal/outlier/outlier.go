// Package outlier defines Sentomist's plug-in outlier detection interface
// (the paper's Figure 3 "anomaly detection" stage) and four detectors:
// the one-class SVM the paper uses, plus PCA reconstruction, k-NN distance,
// and diagonal-Mahalanobis alternatives for the plug-in comparison the
// paper's Section VI-E anticipates.
//
// All detectors follow the paper's scoring convention: every sample gets a
// real-valued score, LOWER meaning MORE suspicious, and scores are
// normalized so the largest positive score is 1 (the footnote to Figure 5).
package outlier

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sentomist/internal/stats"
	"sentomist/internal/svm"
)

// ErrNoSamples is returned when a detector is invoked on an empty batch.
var ErrNoSamples = errors.New("outlier: no samples")

// Detector scores a batch of unlabeled samples. Implementations are
// unsupervised: they model the batch's majority behaviour and score each
// sample's conformance. Lower scores are more suspicious.
type Detector interface {
	Name() string
	Score(samples [][]float64) ([]float64, error)
}

// SparseDetector is implemented by detectors that can score sparse samples
// directly, without the batch being densified first. Scores must equal
// Score on the densified batch (the one-class SVM's are bit-identical);
// the pipeline densifies automatically for detectors lacking it.
type SparseDetector interface {
	Detector
	ScoreSparse(samples []stats.Sparse) ([]float64, error)
}

// Normalize rescales scores in place per the paper's convention: divide by
// the largest positive score so it becomes 1. When no score is positive —
// or the largest positive is numerical dust next to the score range (which
// happens when nearly all samples are identical and sit on the boundary) —
// the largest absolute value is used instead, so relative order and sign
// are preserved without astronomically inflated magnitudes. It returns
// scores.
func Normalize(scores []float64) []float64 {
	var maxPos, maxAbs float64
	for _, s := range scores {
		if s > maxPos {
			maxPos = s
		}
		if a := math.Abs(s); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxPos
	if scale < 1e-6*maxAbs {
		scale = maxAbs
	}
	if scale == 0 {
		return scores
	}
	for i := range scores {
		scores[i] /= scale
	}
	return scores
}

// Rank returns sample indices ordered ascending by score (most suspicious
// first), breaking ties by original position.
func Rank(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return scores[idx[a]] < scores[idx[b]]
	})
	return idx
}

// OneClassSVM wraps the paper's detector: train the ν-SVM on the whole
// batch (the "assume all samples are normal with some misclassified" trick
// of Section V-C1) and score each sample by its signed boundary distance.
type OneClassSVM struct {
	// Nu defaults to 0.05: at most ~5% of intervals treated as outliers.
	Nu float64
	// Kernel defaults to RBF with gamma = 1/dim.
	Kernel svm.Kernel
	// Parallelism bounds the goroutines filling a kernel column on a
	// cache miss: 0 = GOMAXPROCS, 1 = sequential. Scores are identical
	// either way.
	Parallelism int
	// CacheBytes bounds the kernel column cache training memoizes
	// columns in; 0 selects svm.DefaultCacheBytes. Scores are
	// bit-identical at any budget.
	CacheBytes int64
}

// Name implements Detector.
func (d OneClassSVM) Name() string { return "one-class-svm" }

func (d OneClassSVM) config(l int) svm.Config {
	nu := d.Nu
	if nu == 0 {
		nu = 0.05
	}
	// ν must leave the dual feasible: να·l ≥ 1 requires ν ≥ 1/l.
	if lmin := 1 / float64(l); nu < lmin {
		nu = lmin
	}
	return svm.Config{
		Nu:          nu,
		Kernel:      d.Kernel,
		Parallelism: d.Parallelism,
		CacheBytes:  d.CacheBytes,
	}
}

// Score implements Detector: ScoreSparse over the sparse form of each
// sample, which scores bit-identically.
func (d OneClassSVM) Score(samples [][]float64) ([]float64, error) {
	sparse := make([]stats.Sparse, len(samples))
	for i, v := range samples {
		sparse[i] = stats.DenseToSparse(v)
	}
	return d.ScoreSparse(sparse)
}

// ScoreSparse implements SparseDetector: kernel evaluations cost O(nnz)
// per pair. Every sample is a training point, so the scores come straight
// from the kernel columns computed during training
// (Model.TrainingDecisions) — no kernel re-evaluation.
func (d OneClassSVM) ScoreSparse(samples []stats.Sparse) ([]float64, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	model, err := svm.TrainSparse(samples, d.config(len(samples)))
	if err != nil {
		return nil, fmt.Errorf("outlier: %w", err)
	}
	return Normalize(model.TrainingDecisions()), nil
}

// PCA scores samples by the negated reconstruction error after projecting
// onto the principal components that explain VarFraction of the variance.
type PCA struct {
	// VarFraction defaults to 0.95.
	VarFraction float64
	// MaxComponents caps the subspace dimension; defaults to 16.
	MaxComponents int
}

// Name implements Detector.
func (d PCA) Name() string { return "pca" }

// Score implements Detector.
func (d PCA) Score(samples [][]float64) ([]float64, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	frac := d.VarFraction
	if frac <= 0 || frac > 1 {
		frac = 0.95
	}
	maxK := d.MaxComponents
	if maxK <= 0 {
		maxK = 16
	}
	cov, mean := stats.Covariance(samples)
	var total float64
	for i := range cov {
		total += cov[i][i]
	}
	vals, vecs := stats.TopEigen(cov, maxK, 300, nil)
	// Keep components until frac of the variance is explained.
	kept := 0
	var acc float64
	for kept < len(vals) {
		acc += vals[kept]
		kept++
		if total > 0 && acc/total >= frac {
			break
		}
	}
	vecs = vecs[:kept]

	scores := make([]float64, len(samples))
	centered := make([]float64, len(mean))
	for i, s := range samples {
		for d := range centered {
			centered[d] = s[d] - mean[d]
		}
		// Residual energy = ‖x−μ‖² − Σ (vᵀ(x−μ))².
		res := stats.Dot(centered, centered)
		for _, v := range vecs {
			p := stats.Dot(v, centered)
			res -= p * p
		}
		if res < 0 {
			res = 0
		}
		scores[i] = -math.Sqrt(res)
	}
	return Normalize(shiftToPaperConvention(scores)), nil
}

// KNN scores samples by the negated distance to their K-th nearest
// neighbour within the batch.
type KNN struct {
	// K defaults to 5 (clamped to len(samples)-1).
	K int
}

// Name implements Detector.
func (d KNN) Name() string { return "knn" }

// Score implements Detector.
func (d KNN) Score(samples [][]float64) ([]float64, error) {
	n := len(samples)
	if n == 0 {
		return nil, ErrNoSamples
	}
	k := d.K
	if k <= 0 {
		k = 5
	}
	if k > n-1 {
		k = n - 1
	}
	scores := make([]float64, n)
	if k == 0 {
		return scores, nil
	}
	dists := make([]float64, 0, n-1)
	for i := range samples {
		dists = dists[:0]
		for j := range samples {
			if i == j {
				continue
			}
			dists = append(dists, stats.SqDist(samples[i], samples[j]))
		}
		sort.Float64s(dists)
		scores[i] = -math.Sqrt(dists[k-1])
	}
	return Normalize(shiftToPaperConvention(scores)), nil
}

// Mahalanobis scores samples by the negated diagonal Mahalanobis distance
// from the batch mean (full covariance would be singular in the sparse,
// high-dimensional instruction-counter space).
type Mahalanobis struct{}

// Name implements Detector.
func (Mahalanobis) Name() string { return "mahalanobis-diag" }

// Score implements Detector.
func (Mahalanobis) Score(samples [][]float64) ([]float64, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	cov, mean := stats.Covariance(samples)
	const ridge = 1e-9
	scores := make([]float64, len(samples))
	for i, s := range samples {
		var d2 float64
		for d := range mean {
			diff := s[d] - mean[d]
			d2 += diff * diff / (cov[d][d] + ridge)
		}
		scores[i] = -math.Sqrt(d2)
	}
	return Normalize(shiftToPaperConvention(scores)), nil
}

// shiftToPaperConvention moves purely non-positive score vectors (distance
// detectors emit -distance) so that typical samples sit on the positive
// side and outliers below zero, mirroring the SVM's signed-boundary scale:
// the shift is the median score.
func shiftToPaperConvention(scores []float64) []float64 {
	if len(scores) == 0 {
		return scores
	}
	med := stats.Quantile(scores, 0.5)
	for i := range scores {
		scores[i] -= med
	}
	return scores
}
