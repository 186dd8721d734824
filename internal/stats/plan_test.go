package stats

import (
	"math"
	"testing"

	"sentomist/internal/randx"
)

// fuzzValue maps one byte to a counter-like value, over-weighting the
// values where bit-exactness is fragile: +0 and −0 stored explicitly,
// magnitudes whose squares overflow or underflow, and negatives.
func fuzzValue(x byte) float64 {
	switch x % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 1e200 * float64(int8(x)>>3)
	case 3:
		return 1e-200 * float64(int8(x)>>3)
	default:
		return float64(int8(x)) / 3
	}
}

// fuzzVectors decodes data into one left vector and four right vectors
// that share a single index list. Each dimension takes one byte saying
// which side holds it (bit 0: left, bit 1: right) and one byte per value,
// so runs of one byte value become long runs on one side only.
func fuzzVectors(data []byte) (a Sparse, b [4]Sparse) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	dim := 0
	for len(data) > 0 && dim < 1024 {
		c := next()
		if c&1 != 0 {
			a.Idx = append(a.Idx, int32(dim))
			a.Val = append(a.Val, fuzzValue(next()))
		}
		if c&2 != 0 {
			for k := range b {
				b[k].Idx = append(b[k].Idx, int32(dim))
				b[k].Val = append(b[k].Val, fuzzValue(next()))
			}
		}
		dim++
	}
	a.Dim = dim
	for k := range b {
		b[k].Dim = dim
		b[k].Idx = b[0].Idx
	}
	return a, b
}

func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkPlan asserts that the planned evaluations of a against the four b
// equal the sparse merge bit for bit, in both orientations: the kernel
// cache plans a column against its members whichever argument order the
// cell's merge would take, so the merges must be symmetric too.
func checkPlan(t *testing.T, a Sparse, b [4]Sparse) {
	t.Helper()
	var p, q MergePlan
	p.Reset(a.Idx, b[0].Idx)
	q.Reset(b[0].Idx, a.Idx)
	if p.Union() != q.Union() || p.Shared() != q.Shared() {
		t.Fatalf("plan sizes depend on orientation: union %d/%d shared %d/%d", p.Union(), q.Union(), p.Shared(), q.Shared())
	}
	if want := len(a.Idx) + len(b[0].Idx) - p.Shared(); p.Union() != want {
		t.Fatalf("union %d, want %d", p.Union(), want)
	}
	vals := [4][]float64{b[0].Val, b[1].Val, b[2].Val, b[3].Val}
	var sq, dot [4]float64
	p.SqDist4(a.Val, &vals, &sq)
	p.Dot4(a.Val, &vals, &dot)
	for k := range b {
		wantSq, wantDot := SparseSqDist(a, b[k]), SparseDot(a, b[k])
		same := [4][]float64{a.Val, a.Val, a.Val, a.Val}
		var rsq, rdot [4]float64
		q.SqDist4(b[k].Val, &same, &rsq)
		q.Dot4(b[k].Val, &same, &rdot)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"SqDist4", sq[k], wantSq},
			{"Dot4", dot[k], wantDot},
			{"reversed SqDist4", rsq[k], wantSq},
			{"reversed Dot4", rdot[k], wantDot},
			{"reversed SparseSqDist", SparseSqDist(b[k], a), wantSq},
			{"reversed SparseDot", SparseDot(b[k], a), wantDot},
		} {
			if !sameBits(c.got, c.want) {
				t.Fatalf("right %d: %s = %v (%#x), want %v (%#x)\nleft  %v %v\nright %v %v",
					k, c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want),
					a.Idx, a.Val, b[k].Idx, b[k].Val)
			}
		}
	}
}

// FuzzMergePlan: the planned squared distance and dot equal SparseSqDist
// and SparseDot bit for bit on arbitrary pairs. The seed corpus under
// testdata/fuzz/FuzzMergePlan covers empty vectors, disjoint and identical
// index lists, explicit ±0, overflowing squares and long one-sided runs.
func FuzzMergePlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 6, 7, 8, 9, 3, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzVectors(data)
		checkPlan(t, a, b)
	})
}

// TestMergePlanMatchesMerge runs the fuzz property over random pairs in
// every overlap regime randomSparsePair draws, with four right vectors
// sharing one index list as in a kernel column.
func TestMergePlanMatchesMerge(t *testing.T) {
	rng := randx.New(17)
	for trial := 0; trial < 400; trial++ {
		a, b0 := randomSparsePair(rng, 1+rng.Intn(256), rng.Intn(64), float64(trial%5)/4)
		var b [4]Sparse
		for k := range b {
			b[k] = Sparse{Idx: b0.Idx, Val: make([]float64, len(b0.Val)), Dim: b0.Dim}
			for i := range b0.Val {
				b[k].Val[i] = b0.Val[i] * float64(k+1) / 3
			}
		}
		checkPlan(t, a, b)
	}
}

func TestMergePlanLengthMismatchPanics(t *testing.T) {
	var p MergePlan
	p.Reset([]int32{1, 2}, []int32{2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a value list the plan was not built for")
		}
	}()
	one := []float64{1}
	p.SqDist4(one, &[4][]float64{one, one, one, one}, new([4]float64))
}
