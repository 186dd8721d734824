// Package svm implements the one-class ν-SVM of Schölkopf et al. (2001),
// the outlier detector the paper plugs into Sentomist's back end. The
// solver is an SMO-style pairwise coordinate optimizer over the dual
//
//	min ½ Σᵢⱼ αᵢαⱼ K(xᵢ,xⱼ)   s.t.  0 ≤ αᵢ ≤ 1/(νl),  Σᵢ αᵢ = 1
//
// with decision function f(x) = Σᵢ αᵢ K(xᵢ,x) − ρ. Points with f(x) < 0
// fall outside the estimated support of the distribution; the paper ranks
// intervals by this signed distance, ascending.
package svm

import (
	"fmt"
	"math"

	"sentomist/internal/stats"
)

// Kernel is a positive-semidefinite similarity function.
type Kernel interface {
	Eval(a, b []float64) float64
	String() string
}

// SparseKernel is implemented by kernels that can evaluate on sparse
// vectors in O(nnz) instead of O(dim). All built-in kernels implement it,
// and their sparse evaluations are bit-identical to Eval on the densified
// vectors (see stats.SparseSqDist), so sparse training reproduces dense
// training exactly.
type SparseKernel interface {
	Kernel
	EvalSparse(a, b stats.Sparse) float64
}

// RBF is the Gaussian kernel exp(-gamma ‖a-b‖²) — the paper's choice, since
// the boundary between normal and abnormal instruction counters is
// "nonlinear in nature" (Section V-C2).
type RBF struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 { return k.ofSqDist(stats.SqDist(a, b)) }

// EvalSparse implements SparseKernel.
func (k RBF) EvalSparse(a, b stats.Sparse) float64 { return k.ofSqDist(stats.SparseSqDist(a, b)) }

// ofSqDist maps a squared distance to the kernel value. Every evaluation
// path (dense, sparse, planned column fills) goes through it, so equal
// distances give equal kernel values bit for bit.
func (k RBF) ofSqDist(d float64) float64 { return math.Exp(-k.Gamma * d) }

func (k RBF) String() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// Linear is the inner-product kernel, used by the kernel-choice ablation.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 { return stats.Dot(a, b) }

// EvalSparse implements SparseKernel.
func (Linear) EvalSparse(a, b stats.Sparse) float64 { return stats.SparseDot(a, b) }

func (Linear) String() string { return "linear" }
